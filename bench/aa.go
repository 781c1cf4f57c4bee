package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// childRun is what a fresh process of this binary reported for one
// workload: its result line, and the raw figures of its report.
type childRun struct {
	outcome
	rawP50Ms, refP50Ms float64
}

// runChild runs one workload in a fresh process of this binary. The
// child's report goes to log when log is not nil.
func runChild(log io.Writer, w workload, seed int64, seconds float64, trace string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	report, last := splitLastLine(stdout.Bytes())
	if log != nil {
		if _, err := log.Write(report); err != nil {
			return nil, err
		}
	}
	var out childRun
	if err := json.Unmarshal(last, &out.outcome); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	_, raw := splitLastLine(report)
	var refCV float64
	if _, err := fmt.Sscanf(string(raw)+"\n", rawLine, &out.rawP50Ms, &out.refP50Ms, &refCV); err != nil {
		return nil, fmt.Errorf("%s: no raw line in the report: %w", w.name, err)
	}
	return &out, nil // a child that printed a result but found it incorrect exits 1; the caller reads Correct
}

// splitLastLine separates the last non-empty line of b from what is
// before it.
func splitLastLine(b []byte) (before, last []byte) {
	b = bytes.TrimRight(b, "\n")
	i := bytes.LastIndexByte(b, '\n')
	return b[:i+1], b[i+1:]
}

// runAll runs every workload, one fresh process each, and fails if any
// op of any workload failed.
func runAll(log io.Writer, seed int64, seconds float64, trace string) error {
	bad := 0
	for _, w := range workloads {
		out, err := runChild(log, w, seed, seconds, trace)
		if err != nil {
			return err
		}
		fmt.Fprintln(log)
		if !out.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads had failed ops", bad, len(workloads))
	}
	return nil
}

// runAA is the A/A study: two sets of reps full runs of this one binary,
// taking turns (ABAB…, so both sets see the same drift of the host), a
// fresh seed per run as the acceptance procedure does. For each end-to-end
// metric it prints the gap between the two set medians, as a share of the
// first, beside the metric's bound, and under the table the spread of op_p50
// as the clock read it beside its spread after normalisation. It fails if a
// gap exceeds its bound.
func runAA(log io.Writer, reps int, seed int64, seconds float64) error {
	fmt.Fprintf(log, "# A/A study: 2 sets × %d runs × %d workloads, %g s windows, seeds from %d\n\n", reps, len(workloads), seconds, seed)
	exceeded := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		var rawP50, refP50 []float64
		for r := 0; r < 2*reps; r++ {
			out, err := runChild(nil, w, seed+int64(r), seconds, "0")
			if err != nil {
				return err
			}
			if !out.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed+int64(r), out.Failed, out.Attempted)
			}
			for name, m := range out.Metrics {
				sets[r%2][name] = append(sets[r%2][name], m.Value)
			}
			rawP50 = append(rawP50, out.rawP50Ms)
			refP50 = append(refP50, out.refP50Ms)
		}
		fmt.Fprintf(log, "## %s\n\n", w.name)
		fmt.Fprintf(log, "| metric | unit | median A | median B | gap | bound | spread (IQR/median, all %d runs) |\n|---|---|---|---|---|---|---|\n", 2*reps)
		both := func(name string) []float64 {
			return append(append([]float64(nil), sets[0][name]...), sets[1][name]...)
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			gap := (b - a) / a
			if d.better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > d.bound {
				verdict = " **over**"
				exceeded++
			}
			fmt.Fprintf(log, "| `%s` | %s | %.6g | %.6g | %+.2f %% | %g %%%s | %.2f %% |\n",
				d.name, d.unit, a, b, 100*gap, 100*d.bound, verdict, 100*iqrOverMedian(both(d.name)))
		}
		norm := both("op_p50_ms")
		fmt.Fprintf(log, "\n`op_p50` over the %d runs, as the clock read it: %.4g–%.4g ms, range %.1f %%, CV %.1f %%, IQR/median %.1f %%; normalised: %.4g–%.4g ms, range %.1f %%, CV %.1f %%, IQR/median %.1f %%. Yardstick p50: %.3g–%.3g ms.\n\n",
			2*reps, minOf(rawP50), maxOf(rawP50), 100*rangeOverMedian(rawP50), 100*cv(rawP50), 100*iqrOverMedian(rawP50),
			minOf(norm), maxOf(norm), 100*rangeOverMedian(norm), 100*cv(norm), 100*iqrOverMedian(norm),
			minOf(refP50), maxOf(refP50))
	}
	if exceeded > 0 {
		return fmt.Errorf("%d set-median gaps exceed their bounds", exceeded)
	}
	return nil
}

// iqrOverMedian is the distance between the first and third quartile as a
// share of the median, the spread the acceptance procedure computes
// (quartiles by the exclusive method, as Python's statistics.quantiles).
func iqrOverMedian(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / quantileSorted(s, 0.5)
}

func minOf(v []float64) float64 { return quantile(v, 0) }
func maxOf(v []float64) float64 { return quantile(v, 1) }

func rangeOverMedian(v []float64) float64 { return (maxOf(v) - minOf(v)) / median(v) }
