package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"avtmor"
)

// Workload inputs, all generated from the run's seed: the same seed
// gives the same networks, ladders, stimuli and request schedule.

// jitter scales v by a seeded factor in [1−f, 1+f].
func jitter(rng *rand.Rand, v, f float64) float64 { return v * (1 + f*(2*rng.Float64()-1)) }

// rlcLine builds interconnect network (a): a lossy RLC transmission line
// of `sections` sections (2·sections−1 states: node voltages, then
// branch currents) with element values jittered ±10%, driven and
// observed at four ports spread along it. Built through SystemBuilder,
// so past 2500 states it is CSR-only. The losses (R/L = 0.5, G/C = 0.2)
// keep the line's branch points away from the stimulus band, so a
// 72-state ROM tracks it to 1e-3.
func rlcLine(rng *rand.Rand, sections int) (*avtmor.System, error) {
	n := 2*sections - 1
	ports := []int{0, sections / 3, 2 * sections / 3, sections - 1}
	sb := avtmor.NewSystemBuilder(n, len(ports), len(ports))
	caps := make([]float64, sections)
	for k := range caps {
		caps[k] = jitter(rng, 1, 0.1)
	}
	for k := 0; k < sections; k++ {
		g := jitter(rng, 0.2, 0.1)
		if k == sections-1 {
			g += 1 // resistive far-end load
		}
		sb.G1(k, k, -g/caps[k])
		if k > 0 {
			sb.G1(k, sections+k-1, 1/caps[k])
		}
		if k < sections-1 {
			sb.G1(k, sections+k, -1/caps[k])
		}
	}
	for k := 0; k < sections-1; k++ {
		l, r := jitter(rng, 1, 0.1), jitter(rng, 0.5, 0.1)
		b := sections + k
		sb.G1(b, k, 1/l).G1(b, k+1, -1/l).G1(b, b, -r/l)
	}
	for j, p := range ports {
		sb.B(p, j, 1/caps[p]).L(j, p, 1)
	}
	return sb.Build()
}

// rlcNetlist writes interconnect network (b) as netlist text: a chain of
// `sections` RC-shunted nodes joined by series R–L branches (the R–L
// midpoint is a node of its own with a small grounded capacitor) and
// bridged every tenth node by a resistor — 3·sections−2 states, driven
// and observed at both ends. The netlist path keeps a dense G1 next to
// its CSR mirror.
func rlcNetlist(rng *rand.Rand, sections int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* seeded 2-port RLC network, %d sections\n", sections)
	fmt.Fprintf(&b, "I0 0 n1 IN0 1\nI1 0 n%d IN1 1\n", sections)
	for k := 1; k <= sections; k++ {
		fmt.Fprintf(&b, "C%d n%d 0 %.6g\n", k, k, jitter(rng, 1, 0.1))
		fmt.Fprintf(&b, "RG%d n%d 0 %.6g\n", k, k, jitter(rng, 5, 0.1))
		if k < sections {
			fmt.Fprintf(&b, "R%d n%d m%d %.6g\n", k, k, k, jitter(rng, 0.5, 0.1))
			fmt.Fprintf(&b, "CM%d m%d 0 %.6g\n", k, k, jitter(rng, 0.1, 0.1))
			fmt.Fprintf(&b, "L%d m%d n%d %.6g\n", k, k, k+1, jitter(rng, 1, 0.1))
		}
		if k%10 == 0 && k+7 <= sections {
			fmt.Fprintf(&b, "RB%d n%d n%d %.6g\n", k, k, k+7, jitter(rng, 5, 0.1))
		}
	}
	fmt.Fprintf(&b, ".out n1\n.out n%d\n", sections)
	return b.String()
}

// portInputs returns a smooth seeded stimulus for m ports: each port a
// ramped-in sinusoid with its own amplitude and a period of 30–60 time
// units, inside the band the interconnect ROMs track.
func portInputs(rng *rand.Rand, m int) avtmor.Input {
	amp := make([]float64, m)
	per := make([]float64, m)
	for j := range amp {
		amp[j] = 0.2 + 0.3*rng.Float64()
		per[j] = 30 + 30*rng.Float64()
	}
	return func(t float64) []float64 {
		u := make([]float64, m)
		ramp := 1 - math.Exp(-t/4)
		for j := range u {
			u[j] = amp[j] * math.Sin(2*math.Pi*t/per[j]) * ramp
		}
		return u
	}
}

// Diode ladders are the serve workloads' requests.
const (
	minStages = 5
	maxStages = 30
)

// ladder writes the netlist of the idx-th ladder of a run: `stages` RC stages joined
// by series resistors, a diode clamp at every stage, driven by a current
// source at the near end and observed there. Stage counts cycle through
// 5..30 with idx, so every seed requests the same mix of sizes and the
// first 26 ladders cover every size once; the seed draws the element
// values. idx perturbs the far-end resistor so that every ladder of a
// run is a distinct system (a distinct content address).
func ladder(rng *rand.Rand, idx int) []byte {
	stages := minStages + idx%(maxStages-minStages+1)
	var b strings.Builder
	fmt.Fprintf(&b, "* diode ladder %d, %d stages\nI1 0 n1 IN0 1\n", idx, stages)
	for k := 1; k <= stages; k++ {
		fmt.Fprintf(&b, "C%d n%d 0 %.6g\n", k, k, jitter(rng, 1, 0.2))
		r := jitter(rng, 1, 0.2)
		if k == stages {
			r = 1 + float64(idx+1)*1e-6
		}
		fmt.Fprintf(&b, "R%d n%d 0 %.9g\n", k, k, r)
		fmt.Fprintf(&b, "D%d n%d 0 %.6g 0.5\n", k, k, jitter(rng, 0.05, 0.2))
		if k < stages {
			fmt.Fprintf(&b, "RS%d n%d n%d %.6g\n", k, k, k+1, jitter(rng, 1, 0.2))
		}
	}
	b.WriteString(".out n1\n")
	return []byte(b.String())
}

// ladderQuery is the reduction every ladder request asks for.
const ladderQuery = "k1=4&k2=2&s0=0.4"

// ladderOpts are ladderQuery's options for local (check) use.
var ladderOpts = []avtmor.Option{avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(0.4)}

// Ladder transients of the accuracy check and of the simulate requests:
// a slow sinusoid through 500 RK4 steps.
const (
	ladderTEnd  = 20.0
	ladderSteps = 500
	ladderAmp   = 0.2
	ladderHz    = 0.1
)

func ladderInput(t float64) []float64 {
	return []float64{ladderAmp * math.Sin(2*math.Pi*ladderHz*t)}
}
