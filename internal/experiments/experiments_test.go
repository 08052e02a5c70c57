package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Quick: true}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestTable1(t *testing.T) {
	r := Table1(quick)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if v := parse(t, r.Rows[0][2]); v < 110 || v > 155 {
		t.Errorf("VGG19 params %v, want ≈133M", v)
	}
}

func TestFig2CrossoverDirection(t *testing.T) {
	r := Fig2(Config{}) // full size costs milliseconds
	if len(r.Rows) < 2 {
		t.Fatal("too few rows")
	}
	// Batch steers the computation-to-communication ratio: the column must
	// rise strictly with it.
	for i := 1; i < len(r.Rows); i++ {
		if prev, cur := parse(t, r.Rows[i-1][1]), parse(t, r.Rows[i][1]); cur <= prev {
			t.Errorf("comp/comm %v at batch %s after %v at batch %s: want strictly increasing",
				cur, r.Rows[i][0], prev, r.Rows[i-1][0])
		}
	}
	// At the lowest comp/comm ratio EV should not lose badly; at the
	// highest, CP must win (it balances compute).
	last := r.Rows[len(r.Rows)-1]
	cp, ev := parse(t, last[2]), parse(t, last[3])
	if cp > ev {
		t.Errorf("at high comp/comm CP (%v) should beat EV (%v)", cp, ev)
	}
	first := r.Rows[0]
	cp0, ev0 := parse(t, first[2]), parse(t, first[3])
	if ev0/cp0 > 1.05 {
		t.Errorf("at low comp/comm EV (%v) should be competitive with CP (%v)", ev0, cp0)
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4(quick)
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if parse(t, first[1]) <= parse(t, first[2]) {
		t.Error("padded AG should win at even sharding")
	}
	if parse(t, last[1]) >= parse(t, last[2]) {
		t.Error("grouped broadcast should win at full skew")
	}
}

func TestFig13QuickHAPCompetitive(t *testing.T) {
	r := Fig13(quick)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		hap := parse(t, row[2])
		// HAP must beat or match every finishing baseline (small tolerance
		// for simulator noise).
		for i := 3; i < len(row); i++ {
			cell := row[i]
			if cell == "OOM" || cell == "ERR" || cell == "-" {
				continue
			}
			if b := parse(t, cell); hap > b*1.10 {
				t.Errorf("%s: HAP %.3fs slower than %s %.3fs", row[0], hap, r.Header[i], b)
			}
		}
	}
}

func TestFig15AblationMonotone(t *testing.T) {
	r := Fig15(quick)
	for _, row := range r.Rows {
		if strings.Contains(row[1]+row[2]+row[3], "ERR") {
			t.Errorf("%s: ablation error: %v", row[0], row)
			continue
		}
		if strings.HasPrefix(row[2], "DP-OOM") {
			continue // DP baseline OOM: ratios not comparable
		}
		q, qbc := parse(t, row[2]), parse(t, row[4])
		if qbc < q*0.9 {
			t.Errorf("%s: full HAP (%v%%) much worse than Q-only (%v%%)", row[0], qbc, q)
		}
		if q < 95 {
			t.Errorf("%s: +Q (%v%%) should not be slower than DP-EV", row[0], q)
		}
	}
}

func TestFig17HAPSmoothVsDeepSpeedStaircase(t *testing.T) {
	r := Fig17(quick)
	// DeepSpeed pads; with a non-multiple expert count it trains a larger
	// model, so HAP (exact count) should be at least as fast there.
	for _, row := range r.Rows {
		e := row[0]
		if row[1] == "ERR" || row[2] == "ERR" || row[2] == "OOM" {
			continue
		}
		hap, ds := parse(t, row[1]), parse(t, row[2])
		padded := row[3]
		if padded != e && hap > ds*1.15 {
			t.Errorf("experts=%s (padded to %s): HAP %.3f should not lose to DeepSpeed %.3f", e, padded, hap, ds)
		}
	}
}

func TestFig18UnderestimatesWithHighCorrelation(t *testing.T) {
	r := Fig18(quick)
	var est, act []float64
	for _, row := range r.Rows {
		if row[0] == "pearson" {
			if p := parse(t, row[2]); p < 0.9 {
				t.Errorf("Pearson %v, want ≥ 0.9 (paper: 0.97)", p)
			}
			continue
		}
		e, a := parse(t, row[2]), parse(t, row[3])
		est = append(est, e)
		act = append(act, a)
		if e > a*1.02 {
			t.Errorf("cost model over-estimates: est %v > actual %v", e, a)
		}
	}
	if len(est) < 3 {
		t.Fatal("too few variants")
	}
}

func TestFig19SynthesisSecondsAndGrowth(t *testing.T) {
	r := Fig19(quick)
	prev := 0.0
	for _, row := range r.Rows {
		if row[1] == "ERR" {
			t.Fatalf("synthesis failed at %s layers", row[0])
		}
		v := parse(t, row[1])
		if v > 30 {
			t.Errorf("synthesis at %s layers took %vs, paper reports seconds", row[0], v)
		}
		if v < prev*0.3 {
			t.Errorf("synthesis time should grow with layers: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestPearson(t *testing.T) {
	if p := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(p-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", p)
	}
	if p := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(p+1) > 1e-12 {
		t.Errorf("perfect anti-correlation = %v", p)
	}
}

func TestReportString(t *testing.T) {
	r := Fig4(quick)
	s := r.String()
	if !strings.Contains(s, "fig4") || !strings.Contains(s, "maxRatio") {
		t.Errorf("bad rendering:\n%s", s)
	}
}
