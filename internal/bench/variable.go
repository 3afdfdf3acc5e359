package bench

import (
	"io"

	"otif/internal/tuner"
)

// VariableGapResult compares fixed-gap and variable-gap execution of the
// same configuration (the §3.4 preliminary experiment: the paper found the
// two comparable with the recurrent model and kept the simpler fixed gap).
type VariableGapResult struct {
	Fixed    tuner.Point
	Variable tuner.Point
}

// VariableGap runs the comparison on one dataset using the tuned
// fastest-within-tolerance configuration.
func (s *Suite) VariableGap(w io.Writer, name string) (*VariableGapResult, error) {
	if name == "" {
		name = "caldot1"
	}
	t, err := s.System(name)
	if err != nil {
		return nil, err
	}
	pt, ok := tuner.FastestWithin(t.Curve, Table2Tol)
	if !ok {
		return nil, nil
	}
	scale := s.EquivScale()

	fixedCfg := pt.Cfg
	fixedCfg.VariableGap = false
	varCfg := pt.Cfg
	varCfg.VariableGap = true

	res := &VariableGapResult{
		Fixed:    tuner.Evaluate(t.Sys, fixedCfg, t.Sys.DS.Test, t.Metric),
		Variable: tuner.Evaluate(t.Sys, varCfg, t.Sys.DS.Test, t.Metric),
	}

	fprintf(w, "Variable-rate ablation [%s] (config %v):\n", name, pt.Cfg)
	fprintf(w, "  fixed gap:    %7.1f s  accuracy %.3f\n", res.Fixed.Runtime*scale, res.Fixed.Accuracy)
	fprintf(w, "  variable gap: %7.1f s  accuracy %.3f\n", res.Variable.Runtime*scale, res.Variable.Accuracy)
	fprintf(w, "  (the paper found the two comparable and kept the fixed gap)\n")
	return res, nil
}
