package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFigures = flag.Bool("update-figures", false, "rewrite FIGURES.txt at the repository root from this run")

// figuresFile pins every table of Order at full size, in order.
var figuresFile = filepath.Join("..", "..", "FIGURES.txt")

// figure renders experiment id at full size as FIGURES.txt pins it. Fig. 19's
// synthesis seconds are wall-clock time and print as "-"; its instruction
// counts stay.
func figure(id string) string {
	r := All[id](Config{})
	if id == "fig19" {
		for _, row := range r.Rows {
			row[1] = "-"
		}
	}
	return r.String()
}

// sections splits FIGURES.txt into its tables' lines, keyed by experiment id.
func sections(text string) map[string][]string {
	out := map[string][]string{}
	id := ""
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		if line != "" {
			out[id] = append(out[id], line)
		}
	}
	return out
}

// TestFiguresGolden holds every figure table, cell for cell, to FIGURES.txt.
// The simulator and the planner are deterministic, so any moved cell is a
// moved plan, ratio or model: regenerate with
// `go test ./internal/experiments -run TestFiguresGolden -update-figures`
// in a change that means to move the figures, and review the diff.
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full-size tables take minutes under -race and run no concurrency the synth, hapopt and serve race tests miss")
	}
	got := make([]string, len(Order))
	for i, id := range Order {
		got[i] = figure(id)
	}
	if *updateFigures {
		if err := os.WriteFile(figuresFile, []byte(strings.Join(got, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(figuresFile)
	if err != nil {
		t.Fatal(err)
	}
	want := sections(string(text))
	for i, id := range Order {
		g, w := sections(got[i])[id], want[id]
		delete(want, id)
		for k := 0; k < len(g) || k < len(w); k++ {
			gl, wl := "<missing>", "<missing>"
			if k < len(g) {
				gl = g[k]
			}
			if k < len(w) {
				wl = w[k]
			}
			if gl != wl {
				t.Errorf("%s line %d moved:\n got: %s\nwant: %s", id, k+1, gl, wl)
			}
		}
	}
	for id := range want {
		t.Errorf("FIGURES.txt has a table %q that Order does not", id)
	}
}
