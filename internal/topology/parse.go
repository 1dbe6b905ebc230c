package topology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a Network from a compact textual spec, the format shared
// by the command-line tools:
//
//	q:10          hypercube Q_10
//	cq:8          crossed cube CQ_8
//	tq:7          twisted cube TQ_7 (odd n)
//	fq:8          folded hypercube FQ_8
//	eq:8,3        enhanced hypercube Q_{8,3}
//	aq:8          augmented cube AQ_8
//	sq:6          shuffle cube SQ_6 (n ≡ 2 mod 4)
//	tnq:8         twisted N-cube TQ'_8
//	kary:4,5      4-ary 5-cube
//	akary:4,3     augmented 4-ary 3-cube AQ_{3,4}
//	star:7        star graph S_7
//	nkstar:7,3    (7,3)-star
//	pancake:7     pancake graph P_7
//	arr:7,4       arrangement graph A_{7,4}
func Parse(spec string) (Network, error) {
	name, argStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topology: spec %q needs the form family:args", spec)
	}
	var args []int
	for _, a := range strings.Split(argStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return nil, fmt.Errorf("topology: bad argument %q in %q", a, spec)
		}
		args = append(args, v)
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("topology: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	// Constructors panic on out-of-range parameters; surface that as an
	// error for CLI friendliness, under one "topology: " prefix (their
	// own messages already carry it; graph's do not).
	var nw Network
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = errors.New("topology: " + strings.TrimPrefix(fmt.Sprint(r), "topology: "))
			}
		}()
		switch strings.ToLower(name) {
		case "q", "hypercube":
			if err := need(1); err != nil {
				return err
			}
			nw = NewHypercube(args[0])
		case "cq", "crossed":
			if err := need(1); err != nil {
				return err
			}
			nw = NewCrossedCube(args[0])
		case "tq", "twisted":
			if err := need(1); err != nil {
				return err
			}
			nw = NewTwistedCube(args[0])
		case "fq", "folded":
			if err := need(1); err != nil {
				return err
			}
			nw = NewFoldedHypercube(args[0])
		case "eq", "enhanced":
			if err := need(2); err != nil {
				return err
			}
			nw = NewEnhancedHypercube(args[0], args[1])
		case "aq", "augmented":
			if err := need(1); err != nil {
				return err
			}
			nw = NewAugmentedCube(args[0])
		case "sq", "shuffle":
			if err := need(1); err != nil {
				return err
			}
			nw = NewShuffleCube(args[0])
		case "tnq", "twistedn":
			if err := need(1); err != nil {
				return err
			}
			nw = NewTwistedNCube(args[0])
		case "kary":
			if err := need(2); err != nil {
				return err
			}
			nw = NewKAryNCube(args[0], args[1])
		case "akary":
			if err := need(2); err != nil {
				return err
			}
			nw = NewAugmentedKAryNCube(args[0], args[1])
		case "star":
			if err := need(1); err != nil {
				return err
			}
			nw = NewStar(args[0])
		case "nkstar":
			if err := need(2); err != nil {
				return err
			}
			nw = NewNKStar(args[0], args[1])
		case "pancake":
			if err := need(1); err != nil {
				return err
			}
			nw = NewPancake(args[0])
		case "arr", "arrangement":
			if err := need(2); err != nil {
				return err
			}
			nw = NewArrangement(args[0], args[1])
		default:
			return fmt.Errorf("topology: unknown family %q", name)
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	return nw, nil
}
