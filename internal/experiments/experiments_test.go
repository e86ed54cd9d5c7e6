package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestTable1Report(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, Table1Config{
		NSweep:     []int{16, 32},
		MSweep:     []int{64, 256},
		EpsSweep:   []float64{0.5},
		FixedN:     16,
		FixedM:     128,
		FixedEps:   0.5,
		Reps:       1,
		Seed:       1,
		IncludeMRT: true,
	})
	out := buf.String()
	for _, want := range []string{"scaling in n", "scaling in m", "scaling in ε",
		"§4.2.5", "§4.3.3", "n-exponent", "m-exponent", "oracle calls"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rejected!") {
		t.Errorf("a dual rejected 2ω — contract violation:\n%s", out)
	}
}

func TestTheorem2Report(t *testing.T) {
	var buf bytes.Buffer
	Theorem2(context.Background(), &buf, Theorem2Config{N: 8, MSweep: []int{1 << 10, 1 << 12}, Eps: []float64{0.5}, Seed: 2, Reps: 1})
	out := buf.String()
	for _, want := range []string{"FPTAS scaling in m", "oracle calls", "m-exponent"} {
		if !strings.Contains(out, want) {
			t.Errorf("Theorem2 output missing %q:\n%s", want, out)
		}
	}
}

func TestTheorem3ReportNoViolations(t *testing.T) {
	var buf bytes.Buffer
	Theorem3(context.Background(), &buf, Theorem3Config{M: 24, D: 40, Jobs: 12, Eps: []float64{0.5}, Seeds: []uint64{1, 2}})
	out := buf.String()
	if !strings.Contains(out, "approximation quality") {
		t.Fatalf("missing table:\n%s", out)
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("Theorem 3 violated:\n%s", out)
	}
}

func TestFig1Report(t *testing.T) {
	var buf bytes.Buffer
	Fig1(&buf, 2, 3)
	out := buf.String()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("Fig1 errored:\n%s", out)
	}
	for _, want := range []string{"4-Partition instance", "makespan", "m·d"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Fig3Reports(t *testing.T) {
	var b2, b3 bytes.Buffer
	Fig2(&b2, 42)
	Fig3(&b3, 42)
	if !strings.Contains(b2.String(), "feasible within m=8: false") {
		t.Errorf("Fig2 must exhibit an infeasible two-shelf schedule:\n%s", b2.String())
	}
	if !strings.Contains(b3.String(), "schedule validated ✓") {
		t.Errorf("Fig3 must validate:\n%s", b3.String())
	}
}

func TestFig4Report(t *testing.T) {
	var buf bytes.Buffer
	Fig4(&buf)
	out := buf.String()
	for _, want := range []string{"interval structure", "α_i", "U_i", "per-interval bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 missing %q:\n%s", want, out)
		}
	}
}

func TestCrossoverReport(t *testing.T) {
	var buf bytes.Buffer
	Crossover(&buf, 32, []int{64, 256}, 0.5, 1)
	if !strings.Contains(buf.String(), "mrt/§4.3.3") {
		t.Errorf("crossover table malformed:\n%s", buf.String())
	}
}

func TestEstimatorDemo(t *testing.T) {
	var buf bytes.Buffer
	EstimatorDemo(&buf, 5)
	if !strings.Contains(buf.String(), "2-approx") {
		t.Errorf("estimator demo malformed:\n%s", buf.String())
	}
}

func TestFitExponent(t *testing.T) {
	// perfect quadratic data → exponent 2
	sizes := []float64{10, 20, 40, 80}
	times := []time.Duration{100, 400, 1600, 6400}
	if e := fitExponent(sizes, times); e < 1.9 || e > 2.1 {
		t.Errorf("fitExponent = %v, want ≈ 2", e)
	}
}

func TestWriteTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	writeTable(&buf, "t", []string{"a", "bbbb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // title blank + header + sep + 2 rows → title line, header, sep, rows
		t.Errorf("unexpected table shape:\n%s", buf.String())
	}
}

func TestComparisonReport(t *testing.T) {
	var buf bytes.Buffer
	Comparison(context.Background(), &buf, 16, 64, 0.5, 1)
	out := buf.String()
	if !strings.Contains(out, "all-sequential") || !strings.Contains(out, "linear") {
		t.Fatalf("comparison table malformed:\n%s", out)
	}
	if strings.Contains(out, "INVALID") || strings.Contains(out, "err") {
		t.Fatalf("comparison produced invalid schedules:\n%s", out)
	}
}
