package main

import "time"

// The reference box is a small virtual machine on a shared host, and its
// neighbours take the shared cache and the memory bus for a few seconds to
// several minutes at a time. While they do, the product runs 1.3 to 1.5
// times slower (extract-dense 550 -> 800 ms a slice; it allocates a frame
// per render, so its working set is the heap between two collections, not a
// frame) and an integer loop that stays in registers does not notice. A run
// of fifteen seconds sits inside or outside such a phase, so no median
// within the run helps: ten runs of unchanged code spread by a quarter.
//
// So the benchmark measures the machine beside the program. streamMS times
// a fixed kernel, a read-modify-write sweep over 32 MiB, which slows down
// in those phases as the product does. Every timed stretch of a run (a
// slice and its single clips, a tuner repetition and its RunSets, a round
// of query passes, a set-up) is bracketed by two samples of the kernel, and
// the times measured in it are divided by the stretch's machine factor,
// the samples' mean over streamNominalMS, so that what a run reports is
// the time the work would take with quiet neighbours. The times as the
// clock gave them are kept in the run's report as <name>_raw, next to the
// factors. serve-live, whose load is open loop and cannot be interrupted,
// sweeps the kernel every half second beside the load instead and is one
// stretch (servelive.go).
//
// The division is approximate: the kernel is sampled between operations,
// not during them, the neighbours come and go within a second, and not all
// of the product's time waits for memory. A change that makes the product
// wait less for memory is over-corrected while the neighbours are busy: its
// values spread more, and the median over quiet runs stays right.
//
// Over two sets of ten runs that crossed such phases, the spread of the ten
// values of a timing (quartile distance over median) was 10 to 36% as
// measured and 2 to 14% so divided, and the medians of the two sets differed
// by up to 44% as measured and by up to 14% so divided.

const (
	streamWords = 4 << 20 // 32 MiB of uint64: past the 2 MiB L2

	// streamNominalMS is the kernel's time on the reference box with quiet
	// neighbours, taken between two operations of the product. It only sets
	// the scale of what is reported: a factor of 1 is the quiet reference
	// box.
	streamNominalMS = 6.3
)

var (
	streamBuf  []uint64
	streamSink uint64
)

// streamMS sweeps the buffer once and returns the time in milliseconds.
func streamMS() float64 {
	if streamBuf == nil {
		streamBuf = make([]uint64, streamWords)
		for i := range streamBuf { // fault the pages in before anything is timed
			streamBuf[i] = uint64(i)
		}
	}
	t0 := time.Now()
	var s uint64
	for i := range streamBuf {
		s += streamBuf[i]
		streamBuf[i] = s
	}
	streamSink += s
	return ms(time.Since(t0))
}

// streamSample is one sample of the kernel: the median of three sweeps.
func streamSample() float64 {
	return median([]float64{streamMS(), streamMS(), streamMS()})
}

// gauge turns kernel samples into machine factors, one per timed stretch.
type gauge struct {
	last    float64   // the sample that closed the previous stretch, ms
	factors []float64 // one per stretch
}

// gaugeStart opens the first timed stretch. The traced run reports no time
// of its own and is not gauged: its factors are 1.
func (c *runCtx) gaugeStart() {
	if !c.traced {
		c.g.last = streamSample()
	}
}

// factor closes the stretch opened by gaugeStart or by the previous call
// and returns its machine factor: how much slower than with quiet
// neighbours the machine ran while the stretch lasted.
func (c *runCtx) factor() float64 {
	if c.traced {
		return 1
	}
	now := streamSample()
	f := c.factorOf((c.g.last + now) / 2)
	c.g.last = now
	return f
}

// factorOf is the machine factor of a stretch over which the kernel took
// kernelMS.
func (c *runCtx) factorOf(kernelMS float64) float64 {
	f := kernelMS / streamNominalMS
	c.g.factors = append(c.g.factors, f)
	return f
}

// timing is one kind of timed operation over a run: its samples as the
// clock gave them and as divided by their stretch's machine factor.
type timing struct {
	raw, norm []float64
}

// add records samples, in milliseconds, of a stretch whose factor was f.
func (t *timing) add(f float64, samplesMS ...float64) {
	for _, v := range samplesMS {
		t.raw = append(t.raw, v)
		t.norm = append(t.norm, v/f)
	}
}

// setTiming reports a timing's median on the quiet reference box as
// <prefix>_p50_ms and keeps both distributions, tails included, for the
// run's report.
func (c *runCtx) setTiming(prefix string, t *timing) {
	c.setDist(prefix, t.norm)
	c.rep.Dists[prefix+"_raw"] = summarize(t.raw)
}
