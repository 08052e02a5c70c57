package dist_test

import (
	"bytes"
	"testing"

	"hap/internal/dist"
)

// formatAllocs is what rendering VGG19's program on the paper's
// heterogeneous cluster as its listing (Program.String) costs in
// allocations: the one buffer the listing is written into. Each line once
// cost its own text, a fmt.Sprintf for a communication's assignment, a
// notes slice and strings.Join for a computation's notes, and an Fprintln
// into a growing builder (412 on this plan, 155 instructions).
const formatAllocs = 1

func TestFormatAllocationPin(t *testing.T) {
	p := modelPayloads(t)[0] // VGG19
	prog, err := dist.DecodeBinary(bytes.NewReader(p.data), p.g)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() { _ = prog.String() })
	t.Logf("%s: %d instructions, %.0f allocs per String", p.name, len(prog.Instrs), got)
	if got != formatAllocs {
		t.Errorf("%s: %.0f allocs per String, want %d", p.name, got, formatAllocs)
	}
}
