// Package bench regenerates the paper's evaluation: Table 1's analytic cost
// model and Figures 5-9's trace-driven comparisons. cmd/figures and the
// repository's bench_test.go are thin wrappers over this package.
package bench

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/algo"
)

// AlgoKind enumerates the algorithms of Table 1.
type AlgoKind int

// Algorithm kinds.
const (
	KindPollEachRead AlgoKind = iota + 1
	KindPoll
	KindCallback
	KindLease
	KindVolume
	KindDelay
)

// Spec is an algorithm plus its parameters, in the paper's notation:
// Poll(t), Lease(t), Volume(tv, t), Delay(tv, t, d).
type Spec struct {
	Kind AlgoKind
	TV   time.Duration // volume lease timeout
	T    time.Duration // object lease / poll timeout
	D    time.Duration // inactive discard (algo.Forever for ∞)
}

// Secs converts seconds to a duration.
func Secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// PollEachRead returns the Poll Each Read spec.
func PollEachRead() Spec { return Spec{Kind: KindPollEachRead} }

// Poll returns Poll(t).
func Poll(t float64) Spec { return Spec{Kind: KindPoll, T: Secs(t)} }

// Callback returns the Callback spec.
func Callback() Spec { return Spec{Kind: KindCallback} }

// Lease returns Lease(t).
func Lease(t float64) Spec { return Spec{Kind: KindLease, T: Secs(t)} }

// Volume returns Volume(tv, t).
func Volume(tv, t float64) Spec { return Spec{Kind: KindVolume, TV: Secs(tv), T: Secs(t)} }

// Delay returns Delay(tv, t, ∞).
func Delay(tv, t float64) Spec {
	return Spec{Kind: KindDelay, TV: Secs(tv), T: Secs(t), D: algo.Forever}
}

// DelayD returns Delay(tv, t, d) with a finite discard time.
func DelayD(tv, t, d float64) Spec {
	return Spec{Kind: KindDelay, TV: Secs(tv), T: Secs(t), D: Secs(d)}
}

// WithT returns the spec with the object/poll timeout replaced — the x-axis
// sweep of Figures 5-7.
func (s Spec) WithT(t float64) Spec {
	s.T = Secs(t)
	return s
}

// New constructs the simulator algorithm.
func (s Spec) New(env *sim.Env) sim.Algorithm {
	switch s.Kind {
	case KindPollEachRead:
		return algo.NewPollEachRead(env)
	case KindPoll:
		return algo.NewPoll(env, s.T)
	case KindCallback:
		return algo.NewCallback(env)
	case KindLease:
		return algo.NewLease(env, s.T)
	case KindVolume:
		return algo.NewVolume(env, s.TV, s.T)
	case KindDelay:
		return algo.NewDelay(env, s.TV, s.T, s.D)
	default:
		panic(fmt.Sprintf("bench: unknown algorithm kind %d", int(s.Kind)))
	}
}

// Name renders the paper's notation.
func (s Spec) Name() string {
	switch s.Kind {
	case KindPollEachRead:
		return "PollEachRead"
	case KindPoll:
		return fmt.Sprintf("Poll(%s)", fsec(s.T))
	case KindCallback:
		return "Callback"
	case KindLease:
		return fmt.Sprintf("Lease(%s)", fsec(s.T))
	case KindVolume:
		return fmt.Sprintf("Volume(%s,%s)", fsec(s.TV), fsec(s.T))
	case KindDelay:
		d := "inf"
		if s.D != algo.Forever {
			d = fsec(s.D)
		}
		return fmt.Sprintf("Delay(%s,%s,%s)", fsec(s.TV), fsec(s.T), d)
	default:
		return fmt.Sprintf("spec(%d)", int(s.Kind))
	}
}

// Family renders the name with the swept parameter t elided, for figure
// legends: "Volume(10,t)".
func (s Spec) Family() string {
	switch s.Kind {
	case KindPoll:
		return "Poll(t)"
	case KindLease:
		return "Lease(t)"
	case KindVolume:
		return fmt.Sprintf("Volume(%s,t)", fsec(s.TV))
	case KindDelay:
		d := "inf"
		if s.D != algo.Forever {
			d = fsec(s.D)
		}
		return fmt.Sprintf("Delay(%s,t,%s)", fsec(s.TV), d)
	default:
		return s.Name()
	}
}

func fsec(d time.Duration) string {
	s := d.Seconds()
	if s == float64(int64(s)) {
		return strconv.FormatInt(int64(s), 10)
	}
	return strconv.FormatFloat(s, 'g', -1, 64)
}

// ParseSpec parses the paper notation: "pollEachRead", "poll(100)",
// "callback", "lease(10)", "volume(10,10000)", "delay(10,10000)" (d=∞), or
// "delay(10,10000,3600)".
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	name, args, err := splitCall(s)
	if err != nil {
		return Spec{}, err
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("bench: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	// Volume and Delay run core.Table, which takes no zero or negative
	// timeout (and reads d = 0 as ∞, so that must be written inf).
	if (name == "volume" || name == "delay") && slices.ContainsFunc(args, func(a float64) bool { return !(a > 0) }) {
		return Spec{}, fmt.Errorf("bench: %s needs positive arguments, got %v", name, args)
	}
	switch name {
	case "polleachread":
		if err := need(0); err != nil {
			return Spec{}, err
		}
		return PollEachRead(), nil
	case "poll":
		if err := need(1); err != nil {
			return Spec{}, err
		}
		return Poll(args[0]), nil
	case "callback":
		if err := need(0); err != nil {
			return Spec{}, err
		}
		return Callback(), nil
	case "lease":
		if err := need(1); err != nil {
			return Spec{}, err
		}
		return Lease(args[0]), nil
	case "volume":
		if err := need(2); err != nil {
			return Spec{}, err
		}
		return Volume(args[0], args[1]), nil
	case "delay":
		switch {
		case len(args) == 2:
			return Delay(args[0], args[1]), nil
		case len(args) == 3 && math.IsInf(args[2], 1):
			return Delay(args[0], args[1]), nil
		case len(args) == 3:
			return DelayD(args[0], args[1], args[2]), nil
		default:
			return Spec{}, fmt.Errorf("bench: delay takes 2 or 3 arguments, got %d", len(args))
		}
	default:
		return Spec{}, fmt.Errorf("bench: unknown algorithm %q", name)
	}
}

// splitCall parses "name(a,b,...)" or bare "name".
func splitCall(s string) (string, []float64, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return s, nil, nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("bench: malformed spec %q", s)
	}
	name := s[:open]
	inner := s[open+1 : len(s)-1]
	if strings.TrimSpace(inner) == "" {
		return name, nil, nil
	}
	var args []float64
	for _, part := range strings.Split(inner, ",") {
		part = strings.TrimSpace(part)
		if part == "inf" || part == "+inf" {
			args = append(args, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return "", nil, fmt.Errorf("bench: bad argument %q in %q", part, s)
		}
		args = append(args, v)
	}
	return name, args, nil
}
