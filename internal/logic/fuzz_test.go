package logic

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

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

// TestFuzzSeedsPrintAndKey pins the exact printed form and structural key
// of each FuzzParse corpus seed, one per operator of the grammar. FuzzParse
// only checks that printing round-trips, so a printer or key change that
// still round-trips would pass it; this table would not.
func TestFuzzSeedsPrintAndKey(t *testing.T) {
	power := strings.Repeat("E ", MaxEPower) + "p"
	powerKey := strings.Repeat("E*", MaxEPower) + "p1:p"
	for _, tt := range []struct{ seed, str, key string }{
		{"common_dup_group", "C{0,2} (muddy0 | muddy1)", "C{0,2}|2:p6:muddy0p6:muddy1"},
		{"common_eps", "Ce[2]{0,1} sent & Ee[0] sent", "&2:Ce2{0,1}p4:sentEe0*p4:sent"},
		{"common_ev", "Cv delivered & Ev{1} delivered", "&2:Cv*p9:deliveredEv{1}p9:delivered"},
		{"common_time", "Ct[5] attack <-> Et[5] attack", "=Ct5*p6:attackEt5*p6:attack"},
		{"constants", "~~true & false", "&2:!!10"},
		{"dist_group", "D{0,1,2} (p -> q)", "D{0,1,2}>p1:pp1:q"},
		{"everyone_power_group", "E{0,2} E{0,2} E{0,2} p", "E{0,2}E{0,2}E{0,2}p1:p"},
		{"everyone_power_max", power, powerKey},
		{"iff_chain", "(p <-> q) <-> r", "==p1:pp1:qp1:r"},
		{"implies_right_assoc", "p -> q -> r", ">p1:p>p1:qp1:r"},
		{"implies_under_iff", "p -> q <-> ~(r | s) & t", "=>p1:pp1:q&2:!|2:p1:rp1:sp1:t"},
		{"know_leading_zero", "K1 p", "K1:p1:p"},
		{"know_nested", "K12 ~K3 (p & q)", "K12:!K3:&2:p1:pp1:q"},
		{"mu_lfp_nested", "mu Y . p | K0 (nu Z . Y & E Z)", "m1:Y|2:p1:pK0:n1:Z&2:x1:YE*x1:Z"},
		{"nu_gfp", "nu X . E (p & X)", "n1:XE*&2:p1:px1:X"},
		{"someone_or_everyone", "E p | S{1} q", "|2:E*p1:pS{1}p1:q"},
		{"temporal", "<> K0 p -> [] K1 q", ">FK0:p1:pGK1:p1:q"},
		{"underscore_names", "_x & sent_m1 | Y0", "|2:&2:p2:_xp7:sent_m1x2:Y0"},
	} {
		in := readSeed(t, tt.seed)
		f, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", tt.seed, in, err)
		}
		if got := f.String(); got != tt.str {
			t.Errorf("%s: String() = %q, want %q", tt.seed, got, tt.str)
		}
		if got := key(f); got != tt.key {
			t.Errorf("%s: Key() = %q, want %q", tt.seed, got, tt.key)
		}
	}
}

// readSeed returns the input of one FuzzParse corpus seed.
func readSeed(t *testing.T, seed string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParse", seed))
	if err != nil {
		t.Fatal(err)
	}
	// A corpus file is a version line and one string(...) value.
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	in, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", seed, err)
	}
	return in
}

// TestParseRefusesNonASCII pins identifiers and whitespace to ASCII on the
// FuzzParse seeds that spell a name or a space outside it: each is refused
// at the first non-ASCII byte, a rune boundary, and the message is valid
// UTF-8 quoting the input from that offset on, never half of a character.
func TestParseRefusesNonASCII(t *testing.T) {
	for _, tt := range []struct {
		seed string
		off  int
	}{
		{"latin1_bytes", 3},     // "K0 \xe9t\xe9 & \xc0X": Latin-1, not UTF-8
		{"non_ascii_letter", 1}, // "pà"
		{"non_ascii_atom", 12},  // "muddy0 & ~frère"
		{"no_break_space", 3},   // "p &\u00a0q"
	} {
		in := readSeed(t, tt.seed)
		f, err := Parse(in)
		if err == nil {
			t.Errorf("%s: Parse(%q) = %s, want an error", tt.seed, in, f)
			continue
		}
		msg := err.Error()
		if !utf8.ValidString(msg) || !utf8.RuneStart(in[tt.off]) ||
			!strings.Contains(msg, "offset "+strconv.Itoa(tt.off)+":") ||
			!strings.Contains(msg, strconv.Quote(in[tt.off:])) {
			t.Errorf("%s: Parse(%q) error %q, want offset %d quoting %q", tt.seed, in, msg, tt.off, in[tt.off:])
		}
	}
}
