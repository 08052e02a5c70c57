package wirejson

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSkipMatchesValid: Skip reads a whole document exactly when
// encoding/json calls it valid — numbers, escapes, literals, separators and
// the nesting limit included.
func TestSkipMatchesValid(t *testing.T) {
	nested := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, doc := range []string{
		`0`, `-0`, `-`, `01`, `1.`, `1.5e`, `1e+9`, `-12.5E-3`,
		`"éé\ud800"`, `"\x"`, "\"\x01\"", `"\u12"`, `"\/\b\f\n\r\t"`, "\"\xff\"",
		`tru`, `true`, `false`, `nul`, `null`, `nullx`,
		" [1 , {\"a\" : null} ]\n", `[1,]`, `[,1]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `{"a":1 "b":2}`,
		`[`, `"`, `{"a":`, ``, `]`,
		nested(maxDepth), nested(maxDepth + 1),
	} {
		r := Reader{Data: []byte(doc)}
		r.space()
		got := r.Skip() && r.I == len(doc)
		if want := json.Valid([]byte(doc)); got != want {
			t.Errorf("%.40q: Skip read it whole: %v (err %v), json.Valid: %v", doc, got, r.Err, want)
		}
	}
}
