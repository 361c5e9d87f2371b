package logic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses a formula in the concrete syntax documented in print.go.
// It returns an error describing the first syntax problem encountered, and
// rejects formulas violating the positivity restriction on fixed points.
func Parse(input string) (Formula, error) {
	p := &parser{src: input}
	f, err := p.parseFormula(precIff)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("logic: unexpected trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	if err := WellFormed(f); err != nil {
		return nil, err
	}
	return f, nil
}

// MustParse is Parse for statically known formulas; it panics on error.
// It is intended for tests, examples and package-level declarations.
func MustParse(input string) Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

// MaxEPower bounds the sum of k over every E^k in one formula. Parse
// expands E^k into k nested E nodes, so a short input could otherwise
// allocate without limit. At this bound a batch of a thousand formulas
// expands to no more E nodes than a megabyte of plain "E " spells out.
const MaxEPower = 1 << 9

type parser struct {
	src    string
	pos    int
	powers int // sum of k over the E^k parsed so far
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("logic: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) accept(s string) bool {
	if p.peek(s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if !p.accept(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

// ident consumes a letter-initial identifier ([A-Za-z][A-Za-z0-9_]*).
func (p *parser) ident() (string, bool) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || c == '_' || (p.pos > start && unicode.IsDigit(c)) {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return "", false
	}
	return p.src[start:p.pos], true
}

func (p *parser) integer() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && unicode.IsDigit(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected integer")
	}
	n, err := strconv.Atoi(p.src[start:p.pos])
	if err != nil {
		return 0, p.errf("bad integer: %v", err)
	}
	return n, nil
}

// group parses an optional "{i,j,...}" group suffix; absence yields nil
// ("all agents").
func (p *parser) group() (Group, error) {
	if !p.accept("{") {
		return nil, nil
	}
	var agents []Agent
	for {
		n, err := p.integer()
		if err != nil {
			return nil, err
		}
		agents = append(agents, Agent(n))
		if p.accept(",") {
			continue
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return NewGroup(agents...), nil
	}
}

// bracketInt parses "[n]".
func (p *parser) bracketInt() (int, error) {
	if err := p.expect("["); err != nil {
		return 0, err
	}
	n, err := p.integer()
	if err != nil {
		return 0, err
	}
	if err := p.expect("]"); err != nil {
		return 0, err
	}
	return n, nil
}

// parseFormula parses at the given minimum precedence level.
func (p *parser) parseFormula(minPrec int) (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case minPrec <= precAnd && p.peek("&"):
			p.accept("&")
			right, err := p.parseFormula(precAnd + 1)
			if err != nil {
				return nil, err
			}
			left = Conj(left, right)
		case minPrec <= precOr && !p.peek("|>") && p.peek("|"):
			p.accept("|")
			right, err := p.parseFormula(precOr + 1)
			if err != nil {
				return nil, err
			}
			left = Disj(left, right)
		case minPrec <= precIff && p.peek("<->"):
			p.accept("<->")
			right, err := p.parseFormula(precIff + 1)
			if err != nil {
				return nil, err
			}
			left = Iff{L: left, R: right}
		case minPrec <= precImplies && p.peek("->"):
			p.accept("->")
			right, err := p.parseFormula(precImplies) // right associative
			if err != nil {
				return nil, err
			}
			left = Implies{Ant: left, Cons: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Formula, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of input")
	}

	switch {
	case p.accept("~"):
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case p.accept("<>"):
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Eventually{F: f}, nil
	case p.accept("[]"):
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Always{F: f}, nil
	case p.accept("("):
		f, err := p.parseFormula(precIff)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	}

	id, ok := p.ident()
	if !ok {
		return nil, p.errf("expected formula, found %q", rest(p.src, p.pos))
	}
	return p.parseIdent(id)
}

// rest returns a short prefix of the remaining input for error messages.
func rest(src string, pos int) string {
	r := src[pos:]
	if len(r) > 12 {
		r = r[:12] + "..."
	}
	return r
}

// parseIdent dispatches on an identifier: keyword, modal operator, variable
// or ground fact.
func (p *parser) parseIdent(id string) (Formula, error) {
	switch id {
	case "true":
		return Truth{Value: true}, nil
	case "false":
		return Truth{Value: false}, nil
	case "nu", "mu":
		v, ok := p.ident()
		if !ok {
			return nil, p.errf("expected variable after %q", id)
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		body, err := p.parseFormula(precIff)
		if err != nil {
			return nil, err
		}
		if id == "nu" {
			return Nu{Var: v, Body: body}, nil
		}
		return Mu{Var: v, Body: body}, nil
	}

	// K<int>: individual knowledge.
	if strings.HasPrefix(id, "K") && len(id) > 1 && allDigits(id[1:]) {
		n, err := strconv.Atoi(id[1:])
		if err != nil {
			return nil, p.errf("bad agent index in %q", id)
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Know{Agent: Agent(n), F: f}, nil
	}

	// Modal group operators. Note longest-match ordering: Ee/Ev/Et before E,
	// Ce/Cv/Ct before C.
	switch id {
	case "Ee", "Ce":
		eps, err := p.bracketInt()
		if err != nil {
			return nil, err
		}
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if id == "Ee" {
			return EveryEps{G: g, Eps: eps, F: f}, nil
		}
		return CommonEps{G: g, Eps: eps, F: f}, nil
	case "Et", "Ct":
		ts, err := p.bracketInt()
		if err != nil {
			return nil, err
		}
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if id == "Et" {
			return EveryTime{G: g, T: ts, F: f}, nil
		}
		return CommonTime{G: g, T: ts, F: f}, nil
	case "Ev", "Cv":
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if id == "Ev" {
			return EveryEv{G: g, F: f}, nil
		}
		return CommonEv{G: g, F: f}, nil
	case "E":
		// optional ^k exponent
		k := 1
		if p.accept("^") {
			var err error
			k, err = p.integer()
			if err != nil {
				return nil, err
			}
			if k < 1 {
				return nil, p.errf("E^k requires k >= 1")
			}
			if p.powers += k; k > MaxEPower || p.powers > MaxEPower {
				return nil, p.errf("E^k powers sum past %d", MaxEPower)
			}
		}
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return EK(g, k, f), nil
	case "S", "D", "C":
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch id {
		case "S":
			return Someone{G: g, F: f}, nil
		case "D":
			return Dist{G: g, F: f}, nil
		default:
			return Common{G: g, F: f}, nil
		}
	}

	// Uppercase-initial identifiers are fixed-point variables; lowercase are
	// ground facts.
	if unicode.IsUpper(rune(id[0])) {
		return Var{Name: id}, nil
	}
	return Prop{Name: id}, nil
}

func allDigits(s string) bool {
	for _, c := range s {
		if !unicode.IsDigit(c) {
			return false
		}
	}
	return len(s) > 0
}
