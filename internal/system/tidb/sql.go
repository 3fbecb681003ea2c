package tidb

import (
	"bytes"
	"fmt"
	"strings"
	"unicode"
)

// The micro-SQL dialect: enough of SQL for the paper's workloads, with a
// real lexer, parser, and planner so the SQL-parse and SQL-compile phases
// of Fig 8b do genuine work on every statement.
//
//	SELECT v FROM kv WHERE k = 'key'
//	INSERT INTO kv VALUES ('key', 'value')
//	UPDATE kv SET v = 'value' WHERE k = 'key'
//	DELETE FROM kv WHERE k = 'key'
//
// Values are single-quoted strings with '' as the escape for a quote.

// StmtKind discriminates parsed statements.
type StmtKind int

const (
	// StmtSelect is a point read.
	StmtSelect StmtKind = iota
	// StmtInsert writes a new row.
	StmtInsert
	// StmtUpdate overwrites a row's value.
	StmtUpdate
	// StmtDelete removes a row.
	StmtDelete
)

// Stmt is a parsed statement.
type Stmt struct {
	Kind  StmtKind
	Table string
	Key   string
	Value string
}

type token struct {
	kind tokenKind
	text string
}

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokString
	tokPunct
	tokEOF
)

// lex appends the statement's tokens to toks. Token text is sliced out
// of input wherever the two are byte-identical; a new string is built
// only for a literal that contains a doubled-quote escape and for a non-keyword
// identifier that needs upper-casing.
func lex(toks []token, input string) ([]token, error) {
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '\'':
			j := i + 1
			escaped := false
			for {
				if j >= len(input) {
					return nil, fmt.Errorf("sql: unterminated string at %d", i)
				}
				if input[j] == '\'' {
					if j+1 < len(input) && input[j+1] == '\'' {
						escaped = true
						j += 2
						continue
					}
					break
				}
				j++
			}
			text := input[i+1 : j]
			if escaped {
				// Quotes inside the body occur only as the pairs the
				// scan above stepped over, so pairwise replacement is
				// exactly the unescape.
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{tokString, text})
			i = j + 1
		case c == '=' || c == '(' || c == ')' || c == ',' || c == ';' || c == '*':
			toks = append(toks, token{tokPunct, input[i : i+1]})
			i++
		case isIdentChar(c):
			j := i
			for j < len(input) && isIdentChar(input[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, upperIdent(input[i:j])})
			i = j
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	return append(toks, token{kind: tokEOF}), nil
}

// keywords are the words the parser matches; an identifier spelling one
// in any case lexes to the constant.
var keywords = [...]string{"SELECT", "INSERT", "UPDATE", "DELETE", "FROM", "WHERE", "INTO", "VALUES", "SET"}

// tables maps each table the workloads address, its name upper-cased as
// the lexer leaves it, to the prefix of its storage keys. A known table's
// name lexes to the constant, like a keyword, and a statement on one
// compiles its storage key with a single concatenation.
var tables = map[string]string{"KV": "kv/", "CHK": "chk/", "SAV": "sav/"}

// upperIdent is strings.ToUpper for an identifier (ASCII by
// construction), allocating only for an unknown name of two or more
// characters with a lower-case letter among them.
func upperIdent(s string) string {
	if len(s) == 1 && 'a' <= s[0] && s[0] <= 'z' { // a column name: k, v
		const upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
		return upper[s[0]-'a':][:1]
	}
	for _, kw := range keywords {
		if strings.EqualFold(kw, s) {
			return kw
		}
	}
	for name := range tables {
		if strings.EqualFold(name, s) {
			return name
		}
	}
	return strings.ToUpper(s) // s itself when nothing in it is lower-case
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '-' || c == ':' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// parser walks the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return fmt.Errorf("sql: expected %s, got %q", word, t.text)
	}
	return nil
}

func (p *parser) expectPunct(ch string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != ch {
		return fmt.Errorf("sql: expected %q, got %q", ch, t.text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q", t.text)
	}
	return t.text, nil
}

func (p *parser) str() (string, error) {
	t := p.next()
	if t.kind != tokString {
		return "", fmt.Errorf("sql: expected string literal, got %q", t.text)
	}
	return t.text, nil
}

// Parse turns one statement into a Stmt.
func Parse(input string) (Stmt, error) {
	// The dialect's longest statement is 12 tokens; a longer input is
	// rejected as trailing garbage after lex has grown past the array.
	var buf [16]token
	toks, err := lex(buf[:0], input)
	if err != nil {
		return Stmt{}, err
	}
	p := &parser{toks: toks}
	head := p.next()
	if head.kind != tokIdent {
		return Stmt{}, fmt.Errorf("sql: expected statement keyword, got %q", head.text)
	}
	var stmt Stmt
	switch head.text {
	case "SELECT":
		stmt, err = p.parseSelect()
	case "INSERT":
		stmt, err = p.parseInsert()
	case "UPDATE":
		stmt, err = p.parseUpdate()
	case "DELETE":
		stmt, err = p.parseDelete()
	default:
		return Stmt{}, fmt.Errorf("sql: unsupported statement %q", head.text)
	}
	if err != nil {
		return Stmt{}, err
	}
	// Optional trailing semicolon.
	if t := p.peek(); t.kind == tokPunct && t.text == ";" {
		p.next()
	}
	if t := p.next(); t.kind != tokEOF {
		return Stmt{}, fmt.Errorf("sql: trailing input %q", t.text)
	}
	return stmt, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	// SELECT (v | *) FROM table WHERE k = 'key'
	t := p.next()
	if !(t.kind == tokIdent || (t.kind == tokPunct && t.text == "*")) {
		return Stmt{}, fmt.Errorf("sql: bad select list %q", t.text)
	}
	if err := p.expectIdent("FROM"); err != nil {
		return Stmt{}, err
	}
	table, err := p.ident()
	if err != nil {
		return Stmt{}, err
	}
	key, err := p.parseWhere()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{Kind: StmtSelect, Table: table, Key: key}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	// INSERT INTO table VALUES ('key', 'value')
	if err := p.expectIdent("INTO"); err != nil {
		return Stmt{}, err
	}
	table, err := p.ident()
	if err != nil {
		return Stmt{}, err
	}
	if err := p.expectIdent("VALUES"); err != nil {
		return Stmt{}, err
	}
	if err := p.expectPunct("("); err != nil {
		return Stmt{}, err
	}
	key, err := p.str()
	if err != nil {
		return Stmt{}, err
	}
	if err := p.expectPunct(","); err != nil {
		return Stmt{}, err
	}
	value, err := p.str()
	if err != nil {
		return Stmt{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return Stmt{}, err
	}
	return Stmt{Kind: StmtInsert, Table: table, Key: key, Value: value}, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	// UPDATE table SET v = 'value' WHERE k = 'key'
	table, err := p.ident()
	if err != nil {
		return Stmt{}, err
	}
	if err := p.expectIdent("SET"); err != nil {
		return Stmt{}, err
	}
	if _, err := p.ident(); err != nil { // column name
		return Stmt{}, err
	}
	if err := p.expectPunct("="); err != nil {
		return Stmt{}, err
	}
	value, err := p.str()
	if err != nil {
		return Stmt{}, err
	}
	key, err := p.parseWhere()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{Kind: StmtUpdate, Table: table, Key: key, Value: value}, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	// DELETE FROM table WHERE k = 'key'
	if err := p.expectIdent("FROM"); err != nil {
		return Stmt{}, err
	}
	table, err := p.ident()
	if err != nil {
		return Stmt{}, err
	}
	key, err := p.parseWhere()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{Kind: StmtDelete, Table: table, Key: key}, nil
}

func (p *parser) parseWhere() (string, error) {
	if err := p.expectIdent("WHERE"); err != nil {
		return "", err
	}
	if _, err := p.ident(); err != nil { // column name
		return "", err
	}
	if err := p.expectPunct("="); err != nil {
		return "", err
	}
	return p.str()
}

// Plan is a compiled statement: the physical operation plus its routing
// key. Planning resolves the table, validates the operation shape, and
// derives the storage key — the SQL-compile phase of Fig 8b.
type Plan struct {
	Stmt Stmt
	// StorageKey is the key in the distributed store: table-prefixed so
	// different tables do not collide.
	StorageKey string
}

// Compile builds the plan for a parsed statement.
func Compile(stmt Stmt) (Plan, error) {
	if stmt.Table == "" {
		return Plan{}, fmt.Errorf("sql: statement has no table")
	}
	if stmt.Key == "" {
		return Plan{}, fmt.Errorf("sql: statement has no key")
	}
	prefix, ok := tables[stmt.Table]
	if !ok {
		prefix = strings.ToLower(stmt.Table) + "/"
	}
	return Plan{Stmt: stmt, StorageKey: prefix + stmt.Key}, nil
}

// Quote renders a string as a SQL literal.
func Quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// bind fills each ? of tmpl, in order, with the next literal, quoted as
// Quote quotes a string. The statement is one buffer of the exact length,
// and each literal is copied into it once.
func bind(tmpl string, lits ...[]byte) string {
	n := len(tmpl) - len(lits)
	for _, lit := range lits {
		n += len(lit) + 2 + bytes.Count(lit, []byte{'\''})
	}
	var b strings.Builder
	b.Grow(n)
	for _, lit := range lits {
		i := strings.IndexByte(tmpl, '?')
		b.WriteString(tmpl[:i])
		b.WriteByte('\'')
		for j := bytes.IndexByte(lit, '\''); j >= 0; j = bytes.IndexByte(lit, '\'') {
			b.Write(lit[:j+1])
			b.WriteByte('\'')
			lit = lit[j+1:]
		}
		b.Write(lit)
		b.WriteByte('\'')
		tmpl = tmpl[i+1:]
	}
	b.WriteString(tmpl)
	return b.String()
}
