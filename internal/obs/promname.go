package obs

import "strings"

// Prometheus metric-name hygiene. The registry's internal names use
// dotted stage paths ("run.clips", "cost.decode", "cache.hit_rate") that
// are invalid Prometheus identifiers; the exposition layer normalizes
// them at export time so the internal naming scheme — which the JSON and
// text snapshots keep verbatim — never leaks invalid series names.

// PromName converts a registry metric name into a valid Prometheus
// identifier: every character outside [a-zA-Z0-9_:] (dots, slashes,
// dashes, spaces, ...) becomes an underscore, and a leading digit is
// prefixed with an underscore. The result always matches the Prometheus
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*; an empty input yields "_".
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
