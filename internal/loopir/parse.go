package loopir

import (
	"strconv"
	"unicode"
)

// --- tokens -----------------------------------------------------------------

type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent
	tokInt
	tokAssign // =
	tokPlus
	tokMinus
	tokStar
	tokAmp
	tokPipe
	tokCaret
	tokShl // <<
	tokShr // >>
	tokLT  // <
	tokEQ  // ==
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokAt // @
)

type token struct {
	kind      tokKind
	text      string
	line, col int
}

type lexer struct {
	src       string
	pos       int
	line, col int
	toks      []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.emit(tokNewline, "\n")
			l.advance(1)
			l.line++
			l.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == ';':
			l.emit(tokNewline, ";")
			l.advance(1)
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
				l.advance(1)
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], l.line, l.col - (l.pos - start)})
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
				l.advance(1)
			}
			l.toks = append(l.toks, token{tokInt, l.src[start:l.pos], l.line, l.col - (l.pos - start)})
		default:
			if !l.lexOperator() {
				return nil, errf(l.line, l.col, "unexpected character %q", string(rune(c)))
			}
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.line, l.col})
	return l.toks, nil
}

func (l *lexer) lexOperator() bool {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<<":
		l.emit(tokShl, two)
		l.advance(2)
		return true
	case ">>":
		l.emit(tokShr, two)
		l.advance(2)
		return true
	case "==":
		l.emit(tokEQ, two)
		l.advance(2)
		return true
	}
	kinds := map[byte]tokKind{
		'=': tokAssign, '+': tokPlus, '-': tokMinus, '*': tokStar,
		'&': tokAmp, '|': tokPipe, '^': tokCaret, '<': tokLT,
		'(': tokLParen, ')': tokRParen, '[': tokLBracket, ']': tokRBracket,
		',': tokComma, '@': tokAt,
	}
	if k, ok := kinds[l.src[l.pos]]; ok {
		l.emit(k, string(l.src[l.pos]))
		l.advance(1)
		return true
	}
	return false
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{k, text, l.line, l.col})
}

func (l *lexer) advance(n int) {
	l.pos += n
	l.col += n
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// --- AST ---------------------------------------------------------------------

type expr interface{ pos() (int, int) }

type intLit struct {
	val       int64
	line, col int
}

type scalarRef struct {
	name      string
	dist      int // 0: bare read; >=1: explicit @d
	explicit  bool
	line, col int
}

type arrayRef struct {
	array     string
	offset    int64
	line, col int
}

type counterRef struct{ line, col int }

type unary struct {
	op        string
	x         expr
	line, col int
}

type binary struct {
	op        string
	x, y      expr
	line, col int
}

type call struct {
	fn        string
	args      []expr
	line, col int
}

func (e *intLit) pos() (int, int)     { return e.line, e.col }
func (e *scalarRef) pos() (int, int)  { return e.line, e.col }
func (e *arrayRef) pos() (int, int)   { return e.line, e.col }
func (e *counterRef) pos() (int, int) { return e.line, e.col }
func (e *unary) pos() (int, int)      { return e.line, e.col }
func (e *binary) pos() (int, int)     { return e.line, e.col }
func (e *call) pos() (int, int)       { return e.line, e.col }

// stmt is one assignment.
type stmt struct {
	// Either scalar (array == "") or array element destination.
	scalar    string
	array     string
	offset    int64
	rhs       expr
	line, col int
}

// --- parser -------------------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

func parse(src string) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []stmt
	for {
		p.skipNewlines()
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if t := p.peek(); t.kind != tokNewline && t.kind != tokEOF {
			return nil, errf(t.line, t.col, "expected end of statement, found %q", t.text)
		}
	}
	if len(stmts) == 0 {
		return nil, errf(1, 1, "empty program")
	}
	return stmts, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errf(t.line, t.col, "expected %s, found %q", what, t.text)
	}
	return t, nil
}

func (p *parser) parseStmt() (stmt, error) {
	name, err := p.expect(tokIdent, "identifier")
	if err != nil {
		return stmt{}, err
	}
	s := stmt{line: name.line, col: name.col}
	if name.text == "i" {
		return s, errf(name.line, name.col, "cannot assign the induction variable")
	}
	if p.peek().kind == tokLBracket {
		off, err := p.parseSubscript()
		if err != nil {
			return stmt{}, err
		}
		s.array, s.offset = name.text, off
	} else {
		s.scalar = name.text
	}
	if _, err := p.expect(tokAssign, "'='"); err != nil {
		return stmt{}, err
	}
	rhs, err := p.parseExpr(0)
	if err != nil {
		return stmt{}, err
	}
	s.rhs = rhs
	return s, nil
}

// parseSubscript parses "[i]" / "[i+3]" / "[i-2]".
func (p *parser) parseSubscript() (int64, error) {
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return 0, err
	}
	iv, err := p.expect(tokIdent, "the induction variable 'i'")
	if err != nil {
		return 0, err
	}
	if iv.text != "i" {
		return 0, errf(iv.line, iv.col, "subscripts must be i±constant, found %q", iv.text)
	}
	off := int64(0)
	switch p.peek().kind {
	case tokPlus, tokMinus:
		sign := int64(1)
		if p.next().kind == tokMinus {
			sign = -1
		}
		lit, err := p.expect(tokInt, "integer offset")
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseInt(lit.text, 10, 64)
		if err != nil {
			return 0, errf(lit.line, lit.col, "bad integer %q", lit.text)
		}
		off = sign * v
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return 0, err
	}
	return off, nil
}

// Binary precedence levels, lowest first (C-like, restricted to the CGRA's
// operator set).
var precLevels = [][]tokKind{
	{tokPipe},
	{tokCaret},
	{tokAmp},
	{tokLT, tokEQ},
	{tokShl, tokShr},
	{tokPlus, tokMinus},
	{tokStar},
}

func opName(k tokKind) string {
	switch k {
	case tokPipe:
		return "|"
	case tokCaret:
		return "^"
	case tokAmp:
		return "&"
	case tokLT:
		return "<"
	case tokEQ:
		return "=="
	case tokShl:
		return "<<"
	case tokShr:
		return ">>"
	case tokPlus:
		return "+"
	case tokMinus:
		return "-"
	case tokStar:
		return "*"
	}
	return "?"
}

func (p *parser) parseExpr(level int) (expr, error) {
	if level == len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		match := false
		for _, cand := range precLevels[level] {
			if k == cand {
				match = true
			}
		}
		if !match {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.parseExpr(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binary{op: opName(op.kind), x: lhs, y: rhs, line: op.line, col: op.col}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if t := p.peek(); t.kind == tokMinus {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*intLit); ok {
			lit.val = -lit.val
			return lit, nil
		}
		return &unary{op: "-", x: x, line: t.line, col: t.col}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.line, t.col, "bad integer %q", t.text)
		}
		return &intLit{val: v, line: t.line, col: t.col}, nil
	case tokLParen:
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch p.peek().kind {
		case tokLParen:
			return p.parseCall(t)
		case tokLBracket:
			off, err := p.parseSubscript()
			if err != nil {
				return nil, err
			}
			return &arrayRef{array: t.text, offset: off, line: t.line, col: t.col}, nil
		case tokAt:
			p.next()
			lit, err := p.expect(tokInt, "recurrence distance")
			if err != nil {
				return nil, err
			}
			d, err := strconv.ParseInt(lit.text, 10, 32)
			if err != nil || d < 1 {
				return nil, errf(lit.line, lit.col, "recurrence distance must be a positive integer, found %q", lit.text)
			}
			return &scalarRef{name: t.text, dist: int(d), explicit: true, line: t.line, col: t.col}, nil
		}
		if t.text == "i" {
			return &counterRef{line: t.line, col: t.col}, nil
		}
		return &scalarRef{name: t.text, line: t.line, col: t.col}, nil
	default:
		return nil, errf(t.line, t.col, "unexpected %q", t.text)
	}
}

var callArity = map[string]int{"min": 2, "max": 2, "abs": 1, "select": 3}

func (p *parser) parseCall(name token) (expr, error) {
	arity, ok := callArity[name.text]
	if !ok {
		return nil, errf(name.line, name.col, "unknown function %q (have min, max, abs, select)", name.text)
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var args []expr
	for {
		a, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if len(args) != arity {
		return nil, errf(name.line, name.col, "%s takes %d arguments, found %d", name.text, arity, len(args))
	}
	return &call{fn: name.text, args: args, line: name.line, col: name.col}, nil
}
