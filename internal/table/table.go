// Package table implements the relational substrate underneath CDB:
// schemas with crowd-annotated columns, typed values (including the
// CNULL marker for cells the crowd must fill), in-memory relations,
// CSV import/export, and a catalog that CQL statements resolve
// against. The paper's graph query model addresses tuples as
// (table, row index) pairs; TupleRef captures that.
package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the value types CQL columns can carry.
type Kind int

const (
	// String is a varchar column.
	String Kind = iota
	// Int is a 64-bit integer column.
	Int
	// Float is a 64-bit float column.
	Float
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single cell. Null distinguishes the paper's CNULL (an
// attribute value that must be crowdsourced via FILL) from an actual
// value.
type Value struct {
	Kind Kind
	Null bool // CNULL: to be filled by the crowd
	S    string
	I    int64
	F    float64
}

// S returns a string Value.
func SV(s string) Value { return Value{Kind: String, S: s} }

// IV returns an integer Value.
func IV(i int64) Value { return Value{Kind: Int, I: i} }

// FV returns a float Value.
func FV(f float64) Value { return Value{Kind: Float, F: f} }

// CNull returns the crowd-null marker for a column of the given kind.
func CNull(k Kind) Value { return Value{Kind: k, Null: true} }

// String renders the value; CNULL renders as the paper's keyword.
func (v Value) String() string {
	if v.Null {
		return "CNULL"
	}
	switch v.Kind {
	case String:
		return v.S
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "?"
	}
}

// Equal reports deep equality of two values (CNULL equals CNULL of the
// same kind).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch v.Kind {
	case String:
		return v.S == o.S
	case Int:
		return v.I == o.I
	default:
		return v.F == o.F
	}
}

// Column describes one attribute of a table. Crowd marks columns
// declared with the CROWD keyword whose missing values may be FILLed.
type Column struct {
	Name  string
	Kind  Kind
	Crowd bool
}

// Schema is an ordered list of columns plus the table name. CrowdTable
// marks tables declared CREATE CROWD TABLE, whose rows may be
// COLLECTed under the open-world assumption.
type Schema struct {
	Name       string
	Columns    []Column
	CrowdTable bool
}

// ColIndex returns the position of the named column (case-insensitive)
// or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex that panics on a missing column; for use in
// generators and tests where the schema is static.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("table %s: no column %q", s.Name, name))
	}
	return i
}

// Tuple is one row; len(Tuple) always equals len(Schema.Columns).
type Tuple []Value

// Table is an in-memory relation.
type Table struct {
	Schema Schema
	Rows   []Tuple
}

// New creates an empty table with the given schema.
func New(schema Schema) *Table { return &Table{Schema: schema} }

// Append validates and adds a row.
func (t *Table) Append(row Tuple) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("table %s: row arity %d, want %d", t.Schema.Name, len(row), len(t.Schema.Columns))
	}
	for i, v := range row {
		if v.Kind != t.Schema.Columns[i].Kind {
			return fmt.Errorf("table %s: column %s: kind %v, want %v",
				t.Schema.Name, t.Schema.Columns[i].Name, v.Kind, t.Schema.Columns[i].Kind)
		}
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// MustAppend is Append that panics; for static data in tests and the
// embedded running example.
func (t *Table) MustAppend(row Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Cell returns the value at (row, col).
func (t *Table) Cell(row, col int) Value { return t.Rows[row][col] }

// TupleRef addresses one tuple of one table — the vertex identity of
// the paper's graph query model.
type TupleRef struct {
	Table string
	Row   int
}

// String renders e.g. "Paper#3".
func (r TupleRef) String() string { return fmt.Sprintf("%s#%d", r.Table, r.Row) }

// ErrUnknownTable marks a reference to a table the catalog does not
// hold. Every layer that resolves table names wraps it — catalog
// lookups in the public API, FROM-clause binding in the planner — so
// callers can errors.Is instead of string-matching, and an HTTP
// front-end can map it to a status code.
var ErrUnknownTable = errors.New("unknown table")

// Catalog maps table names (case-insensitive) to tables. It is the
// metadata store that CQL resolves against.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// Register adds or replaces a table. The name key is the schema name
// lower-cased.
func (c *Catalog) Register(t *Table) {
	c.tables[strings.ToLower(t.Schema.Name)] = t
}

// Get looks a table up by name (case-insensitive).
func (c *Catalog) Get(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// MustGet is Get that panics on a missing table.
func (c *Catalog) MustGet(name string) *Table {
	t, ok := c.Get(name)
	if !ok {
		panic(fmt.Sprintf("catalog: no table %q", name))
	}
	return t
}

// Names returns the registered table names, sorted, in their original
// schema casing.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Schema.Name)
	}
	sort.Strings(out)
	return out
}

// Len reports how many tables are registered.
func (c *Catalog) Len() int { return len(c.tables) }

// WriteCSV writes the table (header row first) to w. Before writing
// anything it refuses, naming the row and column, a String cell ReadCSV
// would not load back as it was: "CNULL" (it loads as a crowd-null),
// one holding "\r\n" (encoding/csv loads it as "\n"), and the empty
// cell of a one-column row (a blank line, which loads as no row).
func (t *Table) WriteCSV(w io.Writer) error {
	for r, row := range t.Rows {
		for i, v := range row {
			if v.Kind == String && !v.Null && (v.S == "CNULL" || strings.Contains(v.S, "\r\n") || v.S == "" && len(row) == 1) {
				return fmt.Errorf("table %s: row %d col %s: %q would not load back as saved", t.Schema.Name, r+1, t.Schema.Columns[i].Name, v.S)
			}
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	rec := make([]string, len(header))
	for _, row := range t.Rows {
		for i, v := range row {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads rows (header first) into a table with the given
// schema; values are parsed per column kind and "CNULL" becomes the
// crowd-null marker.
func ReadCSV(schema Schema, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("read csv: missing header")
	}
	if len(records[0]) != len(schema.Columns) {
		return nil, fmt.Errorf("read csv: header arity %d, want %d", len(records[0]), len(schema.Columns))
	}
	t := New(schema)
	for rowIdx, rec := range records[1:] {
		row := make(Tuple, len(rec))
		for i, field := range rec {
			v, err := ParseValue(schema.Columns[i].Kind, field)
			if err != nil {
				return nil, fmt.Errorf("row %d col %s: %w", rowIdx+1, schema.Columns[i].Name, err)
			}
			row[i] = v
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ParseValue parses a textual field into a Value of the given kind.
func ParseValue(k Kind, field string) (Value, error) {
	if field == "CNULL" {
		return CNull(k), nil
	}
	switch k {
	case String:
		return SV(field), nil
	case Int:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", field, err)
		}
		return IV(i), nil
	case Float:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", field, err)
		}
		return FV(f), nil
	default:
		return Value{}, fmt.Errorf("unknown kind %v", k)
	}
}
