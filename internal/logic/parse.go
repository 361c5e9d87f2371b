package logic

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a formula in the concrete syntax documented in print.go.
// It returns an error describing the first syntax problem encountered, and
// rejects formulas nested deeper than MaxDepth or violating the positivity
// restriction on fixed points.
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

// MaxDepth bounds how deeply a formula nests. Parse counts the levels open
// at each point of the input: one per prefix operator or binder (k for an
// E^k), per pair of parentheses, per operand, and per <-> or -> on the way
// in. The evaluator builds the structural key of every closed modal
// subformula, so a chain of n nested operators costs about 1.5·n² key
// bytes: 1.5 MB at this bound, where E^MaxEPower still parses.
const MaxDepth = 1 << 10

type parser struct {
	src    string
	pos    int
	powers int // sum of k over the E^k parsed so far
	depth  int // nesting levels open at pos
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("logic: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// skipSpace skips ASCII whitespace. The lexer reads one byte at a time and
// accepts only ASCII, so every offset it stops at is a rune boundary and an
// error never quotes half of a UTF-8 character.
func (p *parser) skipSpace() {
	for p.pos < len(p.src) && strings.IndexByte(" \t\n\v\f\r", p.src[p.pos]) >= 0 {
		p.pos++
	}
}

func isDigit(c byte) bool      { return '0' <= c && c <= '9' }
func isUpper(c byte) bool      { return 'A' <= c && c <= 'Z' }
func isIdentStart(c byte) bool { return isUpper(c) || 'a' <= c && c <= 'z' || c == '_' }

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

// ident consumes an ASCII identifier ([A-Za-z_][A-Za-z0-9_]*).
func (p *parser) ident() (string, bool) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && (isIdentStart(p.src[p.pos]) || p.pos > start && isDigit(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return "", false
	}
	return p.src[start:p.pos], true
}

func (p *parser) integer() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isDigit(p.src[p.pos]) {
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

// parseFormula parses at the given minimum precedence level. The levels
// its binary connectives open close again when it returns.
func (p *parser) parseFormula(minPrec int) (Formula, error) {
	depth := p.depth
	f, err := p.parseBinary(minPrec)
	p.depth = depth
	return f, err
}

func (p *parser) parseBinary(minPrec int) (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// The operands of the & or | chain that ends at left, flattened once
	// when the chain ends: folding them in one Conj or Disj per operand
	// would copy the operand list each time. Short chains stay on the
	// stack.
	var buf [8]Formula
	chain, chainOp := buf[:0], ""
	flush := func() Formula {
		switch chainOp {
		case "&":
			left = Conj(chain...)
		case "|":
			left = Disj(chain...)
		}
		chain, chainOp = chain[:0], ""
		return left
	}
	for {
		var op string
		var prec int
		switch {
		case minPrec <= precAnd && p.peek("&"):
			op, prec = "&", precAnd+1
		case minPrec <= precOr && !p.peek("|>") && p.peek("|"):
			op, prec = "|", precOr+1
		case minPrec <= precIff && p.peek("<->"):
			op, prec = "<->", precIff+1
		case minPrec <= precImplies && p.peek("->"):
			op, prec = "->", precImplies // right associative
		default:
			return flush(), nil
		}
		p.accept(op)
		// Each <-> or -> nests its operands one level deeper; & and | build
		// flat n-ary nodes.
		if op == "<->" || op == "->" {
			if err := p.nest(1); err != nil {
				return nil, err
			}
		}
		right, err := p.parseFormula(prec)
		if err != nil {
			return nil, err
		}
		switch op {
		case "&", "|":
			if op != chainOp {
				left = flush()
				chain, chainOp = append(chain, left), op
			}
			chain = append(chain, right)
		case "<->":
			left = Iff{L: flush(), R: right}
		default:
			left = Implies{Ant: flush(), Cons: right}
		}
	}
}

// nest opens levels more levels of nesting and fails once the formula
// nests deeper than MaxDepth. Callers close them by restoring p.depth.
func (p *parser) nest(levels int) error {
	if p.depth += levels; p.depth > MaxDepth {
		return p.errf("formula nested deeper than %d", MaxDepth)
	}
	return nil
}

// parseUnary parses one operand: an atom, a parenthesised formula, or a
// prefix operator or binder with its operand, one level deeper than its
// context.
func (p *parser) parseUnary() (Formula, error) {
	if err := p.nest(1); err != nil {
		return nil, err
	}
	f, err := p.unary()
	p.depth--
	return f, err
}

func (p *parser) unary() (Formula, error) {
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
	case p.accept(ops[OpEventually].spell):
		return p.modal(OpEventually, 0)
	case p.accept(ops[OpAlways].spell):
		return p.modal(OpAlways, 0)
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
	if strings.HasPrefix(id, ops[OpKnow].spell) && len(id) > 1 && allDigits(id[1:]) {
		n, err := strconv.Atoi(id[1:])
		if err != nil {
			return nil, p.errf("bad agent index in %q", id)
		}
		return p.modal(OpKnow, n)
	}

	// Group operators: the identifier is the whole spelling, so Ee, Ev and
	// Et never match E.
	for op := OpSomeone; op <= OpCommonTime; op++ {
		if id == ops[op].spell {
			return p.modal(op, 0)
		}
	}

	// Uppercase-initial identifiers are fixed-point variables; lowercase are
	// ground facts.
	if isUpper(id[0]) {
		return Var{Name: id}, nil
	}
	return Prop{Name: id}, nil
}

// modal parses the rest of a Modal node whose operator has been read (n is
// K's agent): the bracketed ε or T, the optional group and the operand. E
// may carry an exponent, E^k, which expands to k nested E nodes and opens
// k levels of nesting.
func (p *parser) modal(op Op, n int) (Formula, error) {
	k := 1
	if op == OpEveryone && p.accept("^") {
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
	if ops[op].param == paramBracket {
		var err error
		if n, err = p.bracketInt(); err != nil {
			return nil, err
		}
	}
	var g Group
	if ops[op].group {
		var err error
		if g, err = p.group(); err != nil {
			return nil, err
		}
	}
	if err := p.nest(k - 1); err != nil {
		return nil, err
	}
	f, err := p.parseUnary()
	p.depth -= k - 1
	if err != nil {
		return nil, err
	}
	return EK(g, k-1, Modal{Op: op, N: n, G: g, F: f}), nil
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return len(s) > 0
}
