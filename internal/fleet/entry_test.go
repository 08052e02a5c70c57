package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hap"
	"hap/internal/fingerprint"
)

// planPayload is a real plan's binary payload, what every accepted entry
// carries.
func planPayload(t testing.TB) []byte {
	t.Helper()
	g := hap.NewGraph()
	x := g.AddPlaceholder("x", 0, 16, 8)
	w := g.AddParameter("w", 8, 4)
	g.SetLoss(g.AddOp(hap.Sum, g.AddOp(hap.MatMul, x, w)))
	if err := hap.Backward(g); err != nil {
		t.Fatal(err)
	}
	c := hap.PerGPU(hap.MachineSpec{Type: hap.V100, GPUs: 1}, hap.MachineSpec{Type: hap.P100, GPUs: 1})
	plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := plan.WriteProgramBinary(&bin); err != nil {
		t.Fatal(err)
	}
	return bin.Bytes()
}

// framedWalk is the payload framing DecodeEntry promises, walked here
// independently of planwire.Framed: "HAPB" first, then a trailer whose
// big-endian uint32 length and "HAPT" end the payload and which starts after
// the magic.
func framedWalk(b []byte) bool {
	if len(b) < 12 || string(b[:4]) != "HAPB" || string(b[len(b)-4:]) != "HAPT" {
		return false
	}
	tlen := uint64(binary.BigEndian.Uint32(b[len(b)-8:]))
	return 4+tlen+8 <= uint64(len(b))
}

func TestDecodeEntry(t *testing.T) {
	bin := planPayload(t)
	record := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	overlap := append([]byte("HAPB"), binary.BigEndian.AppendUint32(nil, 1)...)
	overlap = append(overlap, "HAPT"...) // a 1-byte trailer would start inside the magic
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"entry", record(Entry{Key: "k", Bin: bin}), true},
		{"record that also carries a plan version", record(map[string]any{"key": "k", "bin": bin, "version": 2}), true},
		{"record that also carries the JSON plan", record(map[string]any{"key": "k", "plan": []byte(`{"program":{}}`), "bin": bin}), true},
		{"no key", record(Entry{Bin: bin}), false},
		{"key longer than a plan key", record(Entry{Key: strings.Repeat("k", fingerprint.MaxPlanKey+1), Bin: bin}), false},
		{"no payload", record(map[string]any{"key": "k", "plan": []byte(`{"program":{}}`)}), false},
		{"garbage payload", record(Entry{Key: "k", Bin: []byte("not a plan payload")}), false},
		{"truncated payload", record(Entry{Key: "k", Bin: bin[:len(bin)-1]}), false},
		{"payload without the program magic", record(Entry{Key: "k", Bin: append([]byte("NOPE"), bin[4:]...)}), false},
		{"trailer overlapping the magic", record(Entry{Key: "k", Bin: overlap}), false},
		{"not JSON", []byte("]["), false},
	} {
		e, err := DecodeEntry(tc.data)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && (e.Key != "k" || !bytes.Equal(e.Bin, bin)) {
			t.Errorf("%s: decoded %q with a %d-byte payload, want k and the plan's %d bytes", tc.name, e.Key, len(e.Bin), len(bin))
		}
	}
}

// FuzzPlanEntry feeds arbitrary bytes to DecodeEntry, the one decoder every
// plan record crossing a disk or process boundary passes. It must never
// panic; an accepted entry names a key no longer than a plan key and carries
// a framed payload (checked by framedWalk, not by the function under test);
// and an accepted entry re-encodes to bytes that decode to the same entry.
// The committed corpus holds the witnesses: a record with a good JSON plan
// and a garbage payload, which a disk restore once served as a hit no client
// could decode, and a framed payload under a key longer than any plan key,
// which the store once held outside its byte cap.
func FuzzPlanEntry(f *testing.F) {
	bin := planPayload(f)
	for _, e := range []any{map[string]any{"key": "k", "bin": bin, "version": 3}, Entry{Key: "a:b:s0", Bin: bin}} {
		data, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"key":"k"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if e.Key == "" || !framedWalk(e.Bin) {
			t.Fatalf("accepted key %q with an unframed %d-byte payload", e.Key, len(e.Bin))
		}
		if len(e.Key) > fingerprint.MaxPlanKey {
			t.Fatalf("accepted a %d-byte key, over the %d a plan key takes", len(e.Key), fingerprint.MaxPlanKey)
		}
		again, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeEntry(again)
		if err != nil || !reflect.DeepEqual(back, e) {
			t.Fatalf("re-encoded entry decodes to %+v, %v; want %+v", back, err, e)
		}
	})
}
