package logic

import "testing"

// FuzzParse pins the printer as the parser's inverse on structure: every
// input that parses prints to a string that parses back to a formula with
// the same structural key.
func FuzzParse(f *testing.F) {
	// testdata/fuzz/FuzzParse holds one seed per operator of the grammar.
	f.Add("K0 muddy1")
	f.Add("nu X . E (p & X)")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(input)
		if err != nil {
			return
		}
		printed := g.String()
		h, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not parse: %v", input, printed, err)
		}
		if kg, kh := key(g), key(h); kg != kh {
			t.Fatalf("Parse(%q) = %s has key %q; it reparses with key %q", input, printed, kg, kh)
		}
	})
}

func key(f Formula) string {
	k, _ := Key(f)
	return k
}
