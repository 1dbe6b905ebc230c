package core

import (
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"comparisondiag/internal/graph"
	"comparisondiag/internal/topology"
)

// The literal-list schedule compiler, kept here as the reference the
// bitmask encoding must reproduce: each entry's condition is a list of
// (bit, value) literals, copied per entry at every recursion level, and
// encoded into the word-index filter and in-word pattern literal by
// literal.

type refXORLit struct {
	bit int
	val bool
}

type refXORSched struct {
	mask int32
	lits []refXORLit
}

func refCompileXORSchedule(masks []int32) []refXORSched {
	const maxSteps = 4096
	if len(masks) == 1 {
		return []refXORSched{{mask: masks[0]}}
	}
	var or int32
	and := int32(-1)
	for _, m := range masks {
		or |= m
		and &= m
	}
	if or&^and == 0 {
		return nil
	}
	h := 31 - bits.LeadingZeros32(uint32(or&^and))
	var a, b []int32
	for _, m := range masks {
		if m&(1<<uint(h)) != 0 {
			a = append(a, m)
		} else {
			b = append(b, m)
		}
	}
	sa, sb := refCompileXORSchedule(a), refCompileXORSchedule(b)
	if sa == nil || sb == nil {
		return nil
	}
	var out []refXORSched
	if len(sa) <= len(sb) {
		out = append(out, refWithXORLit(sa, h, true)...)
		out = append(out, sb...)
		out = append(out, refWithXORLit(sa, h, false)...)
	} else {
		out = append(out, refWithXORLit(sb, h, false)...)
		out = append(out, sa...)
		out = append(out, refWithXORLit(sb, h, true)...)
	}
	if len(out) > maxSteps {
		return nil
	}
	return out
}

func refWithXORLit(s []refXORSched, bit int, val bool) []refXORSched {
	out := make([]refXORSched, len(s))
	for i, e := range s {
		lits := append([]refXORLit{{bit, val}}, e.lits...)
		out[i] = refXORSched{mask: e.mask, lits: lits}
	}
	return out
}

func refXORSteps(masks []int32) []xorStep {
	sched := refCompileXORSchedule(masks)
	if sched == nil {
		return nil
	}
	steps := make([]xorStep, len(sched))
	for i, s := range sched {
		st := xorStep{
			mask:    s.mask,
			wordXor: uint32(s.mask >> 6),
			low:     uint32(s.mask & 63),
			pat:     ^uint64(0),
		}
		for _, lt := range s.lits {
			if lt.bit >= 6 {
				st.wiMask |= 1 << uint(lt.bit-6)
				if lt.val {
					st.wiVal |= 1 << uint(lt.bit-6)
				}
			} else if lt.val {
				st.pat &= ^deltaSwapMasks[lt.bit]
			} else {
				st.pat &= deltaSwapMasks[lt.bit]
			}
		}
		steps[i] = st
	}
	return steps
}

// TestXORStepsMatchLiteralReference pins the bitmask condition
// encoding against the literal-list compiler above: for Q_n, FQ_n,
// Q_{n,f} and AQ_n (n = 2..12) and for every mask set in the
// FuzzCompileXORSchedule corpus, the encoded steps are equal field for
// field, refusals included. Where the family binds the kernel, the
// bound kernel's steps are those same steps.
func TestXORStepsMatchLiteralReference(t *testing.T) {
	var families []topology.Network
	for n := 2; n <= 12; n++ {
		families = append(families, topology.NewHypercube(n), topology.NewFoldedHypercube(n), topology.NewAugmentedCube(n))
		for f := 2; f <= n; f++ {
			families = append(families, topology.NewEnhancedHypercube(n, f))
		}
	}
	checked := 0
	for _, nw := range families {
		desc := nw.(topology.CayleyStructured).CayleyStructure().(graph.XORCayley)
		want := refXORSteps(desc.Masks)
		got := compileXORSteps(desc.Masks)
		if want == nil || !slices.Equal(got, want) {
			t.Fatalf("%s masks %v: steps %+v, reference %+v", nw.Name(), desc.Masks, got, want)
		}
		if k, ok := bindXORKernel(desc, nw.Graph()).(*xorKernel); ok {
			if !slices.Equal(k.steps, want) {
				t.Fatalf("%s: bound kernel steps differ from the reference", nw.Name())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no family bound the XOR kernel")
	}

	corpus := slices.Clone(xorScheduleSeeds)
	dir := filepath.Join("testdata", "fuzz", "FuzzCompileXORSchedule")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		arg, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if len(lines) != 2 || !ok {
			t.Fatalf("%s: unexpected corpus entry %q", fe.Name(), raw)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", fe.Name(), err)
		}
		corpus = append(corpus, []byte(data))
	}
	for _, data := range corpus {
		masks := fuzzMasks(data)
		if masks == nil {
			continue
		}
		want := refXORSteps(masks)
		if got := compileXORSteps(masks); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("corpus masks %v: steps %+v, reference %+v", masks, got, want)
		}
	}
}
