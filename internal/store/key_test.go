package store

import (
	"encoding/binary"
	"math"
	"testing"

	"otif/internal/geom"
	"otif/internal/query"
)

// keyParams is one draw of every parameter a cache key can hold; each kind
// reads the fields keyKinds names.
type keyParams struct {
	cat, catB string
	a, b      int
	x         float64
	region    geom.Polygon
	movements []query.Movement
	pred      query.FramePredicate
}

// oddPredicate is a frame predicate of a type key.go has no tag for, keyed
// by its %T and %#v.
type oddPredicate struct{ S string }

func (oddPredicate) Eval(boxes []geom.Rect) ([]geom.Rect, bool) { return boxes, true }

// keyKinds is every kind with the key it makes and the fields it reads.
var keyKinds = []struct {
	name   string
	key    func(p *keyParams) string
	fields []string
}{
	{"breakdown", func(p *keyParams) string { return breakdownKey(p.cat, p.movements, p.x) }, []string{"cat", "movements", "x"}},
	{"limit", func(p *keyParams) string { return limitKey(p.cat, p.pred, p.a, p.b) }, []string{"cat", "pred", "a", "b"}},
	{"avgvisible", func(p *keyParams) string { return avgVisibleKey(p.cat) }, []string{"cat"}},
	{"busy", func(p *keyParams) string { return busyKey(p.cat, p.a, p.catB, p.b) }, []string{"cat", "a", "catB", "b"}},
	{"cooccur", func(p *keyParams) string { return coOccurKey(p.cat, p.x) }, []string{"cat", "x"}},
	{"dwell", func(p *keyParams) string { return dwellKey(p.cat, p.region) }, []string{"cat", "region"}},
	{"braking", func(p *keyParams) string { return brakingKey(p.x) }, []string{"x"}},
	{"speeding", func(p *keyParams) string { return speedingKey(p.x) }, []string{"x"}},
	{"pairs", func(p *keyParams) string { return pairsKey(p.cat) }, []string{"cat"}},
	{"ranks", func(p *keyParams) string { return ranksKey(p.cat, p.pred) }, []string{"cat", "pred"}},
	{"runs", func(p *keyParams) string { return runsKey(p.cat) }, []string{"cat"}},
}

// sameBits reports whether p and q hold identical values, bit for bit, in
// the named fields: strings byte for byte, floats by math.Float64bits, and
// lists element by element (a nil list and an empty one hold the same).
func sameBits(p, q *keyParams, fields []string) bool {
	for _, f := range fields {
		var same bool
		switch f {
		case "cat":
			same = p.cat == q.cat
		case "catB":
			same = p.catB == q.catB
		case "a":
			same = p.a == q.a
		case "b":
			same = p.b == q.b
		case "x":
			same = math.Float64bits(p.x) == math.Float64bits(q.x)
		case "region":
			same = samePoints(p.region, q.region)
		case "movements":
			same = len(p.movements) == len(q.movements)
			for i := 0; same && i < len(p.movements); i++ {
				same = p.movements[i].Name == q.movements[i].Name && samePoints(p.movements[i].Path, q.movements[i].Path)
			}
		case "pred":
			same = samePred(p.pred, q.pred)
		default:
			panic("no field " + f)
		}
		if !same {
			return false
		}
	}
	return true
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

func samePred(a, b query.FramePredicate) bool {
	switch a := a.(type) {
	case query.RegionPredicate:
		b, ok := b.(query.RegionPredicate)
		return ok && a.N == b.N && samePoints(a.Region, b.Region)
	case query.HotSpotPredicate:
		b, ok := b.(query.HotSpotPredicate)
		return ok && a.N == b.N && math.Float64bits(a.Radius) == math.Float64bits(b.Radius)
	}
	return a == b // CountPredicate and oddPredicate compare their fields
}

// keyAlphabet is what fuzzed strings are made of: the characters the
// %#v keys put between and around parameters, and a few others.
const keyAlphabet = "ab|{}%\"\\,: \x00\x01"

// keySpecials are floats whose bits matter: both zeros, both infinities,
// NaNs with three payloads, subnormals and the largest float.
var keySpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
	math.Float64frombits(1), -math.Float64frombits(1), math.SmallestNonzeroFloat64 * 3,
	math.MaxFloat64, 1, 80,
}

// keyReader draws parameters from fuzz bytes, reading zeros past the end.
type keyReader struct{ b []byte }

func (r *keyReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *keyReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *keyReader) str() string {
	b := make([]byte, r.byte()%6)
	for i := range b {
		b[i] = keyAlphabet[int(r.byte())%len(keyAlphabet)]
	}
	return string(b)
}

func (r *keyReader) int() int {
	if c := r.byte(); c%2 == 0 {
		return int(c/2)%5 - 1
	}
	return int(r.u64())
}

func (r *keyReader) float() float64 {
	if c := r.byte(); c%3 != 0 {
		return keySpecials[int(c)%len(keySpecials)]
	}
	return math.Float64frombits(r.u64())
}

func (r *keyReader) points() []geom.Point {
	n := int(r.byte() % 5)
	if n == 0 {
		return nil
	}
	ps := make([]geom.Point, n)
	for i := range ps {
		ps[i] = geom.Point{X: r.float(), Y: r.float()}
	}
	return ps
}

func (r *keyReader) pred() query.FramePredicate {
	switch r.byte() % 4 {
	case 0:
		return query.CountPredicate{N: r.int()}
	case 1:
		return query.RegionPredicate{Region: r.points(), N: r.int()}
	case 2:
		return query.HotSpotPredicate{Radius: r.float(), N: r.int()}
	}
	return oddPredicate{S: r.str()}
}

func (r *keyReader) params() *keyParams {
	p := &keyParams{cat: r.str(), catB: r.str(), a: r.int(), b: r.int(), x: r.float(), region: r.points()}
	for n := r.byte() % 4; n > 0; n-- {
		p.movements = append(p.movements, query.Movement{Name: r.str(), Path: r.points()})
	}
	p.pred = r.pred()
	return p
}

// mutate changes one field of p, drawn from r, in a way that may leave it
// as it was: a byte moved between neighbouring strings or a point between
// neighbouring lists (what a separator or a count in a key must keep
// apart), one bit of a float flipped, a list grown or cut, a predicate
// retyped with its count kept.
func (p *keyParams) mutate(r *keyReader) {
	op := r.byte()
	switch op % 10 {
	case 0: // a byte moves from cat to catB
		if p.cat != "" {
			p.cat, p.catB = p.cat[:len(p.cat)-1], p.cat[len(p.cat)-1:]+p.catB
		}
	case 1:
		p.cat += string(keyAlphabet[int(r.byte())%len(keyAlphabet)])
	case 2:
		p.a += int(r.byte()%3) - 1
	case 3:
		p.b, p.a = p.a, p.b
	case 4:
		p.x = math.Float64frombits(math.Float64bits(p.x) ^ 1<<(r.byte()%64))
	case 5:
		if len(p.region) > 0 && op&16 != 0 {
			p.region = p.region[:len(p.region)-1]
		} else {
			p.region = append(p.region, geom.Point{X: r.float(), Y: r.float()})
		}
	case 6: // a point moves from one movement's path to the next one's
		for i := 0; i+1 < len(p.movements); i++ {
			if m := &p.movements[i]; len(m.Path) > 0 {
				next := &p.movements[i+1]
				next.Path = append([]geom.Point{m.Path[len(m.Path)-1]}, next.Path...)
				m.Path = m.Path[:len(m.Path)-1]
				break
			}
		}
	case 7: // a byte moves from one movement's name to the next one's
		for i := 0; i+1 < len(p.movements); i++ {
			if m := &p.movements[i]; m.Name != "" {
				next := &p.movements[i+1]
				next.Name, m.Name = m.Name[len(m.Name)-1:]+next.Name, m.Name[:len(m.Name)-1]
				break
			}
		}
	case 8: // the predicate changes type and keeps its count
		n := 0
		switch q := p.pred.(type) {
		case query.CountPredicate:
			n = q.N
		case query.RegionPredicate:
			n = q.N
		case query.HotSpotPredicate:
			n = q.N
		}
		switch r.byte() % 3 {
		case 0:
			p.pred = query.CountPredicate{N: n}
		case 1:
			p.pred = query.RegionPredicate{N: n}
		default:
			p.pred = query.HotSpotPredicate{N: n}
		}
	case 9:
		if len(p.movements) > 0 {
			p.movements = p.movements[:len(p.movements)-1]
		}
	}
}

// spellOp is the least mutation byte that picks spell over mutate; the
// bytes below it keep the mutations they picked before spell existed.
const spellOp = 250

// spell rewrites p's first string so that it spells a separator, drawn
// from r, and the eight bytes a key holds for the int after it, and puts
// the same nine bytes in front of q's second string, on the far side of
// that int. A busy key of p and one of q then hold the same bytes in the
// same order but for the strings' lengths, so a key that ended each string
// with that separator instead of prefixing its length would let the two
// collide.
func spell(p, q *keyParams, r *keyReader) {
	sep := string(keyAlphabet[int(r.byte())%len(keyAlphabet)])
	p.cat += sep + string(binary.LittleEndian.AppendUint64(nil, uint64(p.a)))
	q.catB = sep + string(binary.LittleEndian.AppendUint64(nil, uint64(q.a))) + q.catB
}

// clone copies p deeply enough that mutate leaves p as it was.
func (p *keyParams) clone() *keyParams {
	q := *p
	q.region = append(geom.Polygon(nil), p.region...)
	q.movements = make([]query.Movement, len(p.movements))
	for i, m := range p.movements {
		q.movements[i] = query.Movement{Name: m.Name, Path: append(geom.Path(nil), m.Path...)}
	}
	return &q
}

// FuzzCacheKey draws a parameter tuple and a copy of it changed by up to a
// few mutations (spell changes the tuple too, so that one of its strings
// spells the int after it), and requires, for every kind, that their keys are equal
// exactly when the fields the kind reads are identical bit for bit, and
// that no two kinds share a key. Strings come from an alphabet heavy in the
// characters the %#v keys used as separators; floats are raw bits or
// NaNs, zeros, infinities and subnormals; polygons and movement lists have
// random lengths; every predicate type appears, one key.go has no tag for
// among them.
func FuzzCacheKey(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("\x03a|1\x01b\x02\x00\x02\x00\x01\x02\x01\x02\x02a\x02\x00\x01"), []byte{0})
	f.Fuzz(func(t *testing.T, draw, mutations []byte) {
		p := (&keyReader{b: draw}).params()
		q := p.clone()
		r := &keyReader{b: mutations}
		for i := 0; i < 3 && len(r.b) > 0; i++ {
			if r.b[0] >= spellOp {
				r.byte()
				spell(p, q, r)
				continue
			}
			q.mutate(r)
		}
		pk := make([]string, len(keyKinds))
		for i, k := range keyKinds {
			pk[i] = k.key(p)
			if again := k.key(p.clone()); again != pk[i] {
				t.Fatalf("%s: one tuple keyed twice gave %q and %q", k.name, pk[i], again)
			}
			qk := k.key(q)
			if same := sameBits(p, q, k.fields); (pk[i] == qk) != same {
				t.Fatalf("%s: keys equal %v, parameters identical %v\n p: %#v\n q: %#v", k.name, pk[i] == qk, same, p, q)
			}
		}
		for i := range keyKinds {
			for j := range keyKinds {
				if i != j && pk[i] == keyKinds[j].key(q) {
					t.Fatalf("a %s key equals a %s key: %q", keyKinds[i].name, keyKinds[j].name, pk[i])
				}
			}
		}
	})
}

// TestCacheKeyAllocs: making a key allocates at most its string when the
// parameters fit the stack buffer (a short key the caller drops may be
// made on the stack too).
func TestCacheKeyAllocs(t *testing.T) {
	region := geom.Polygon{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"busy", func() { busyKey("car", 2, "bus", 1) }},
		{"dwell", func() { dwellKey("car", region) }},
		{"limit", func() { limitKey("car", query.CountPredicate{N: 3}, 5, 25) }},
	} {
		if got := testing.AllocsPerRun(20, k.run); got > 1 {
			t.Errorf("%s: %.0f allocs a key, want at most 1", k.name, got)
		}
	}
	if busyKey("a|1|b", 2, "c", 1) == busyKey("a", 1, "b|2|c", 1) {
		t.Error("two busy calls that spelled one formatted key share a binary key")
	}
}
