package cql

import (
	"fmt"
	"strings"
)

// Statement is any parsed CQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to canonical CQL.
	String() string
}

// ColRef names a column, optionally table-qualified.
type ColRef struct {
	Table  string
	Column string
}

// String renders Table.Column (or just Column).
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// PredKind classifies WHERE predicates.
type PredKind int

// Predicate kinds.
const (
	// CrowdJoin: T.C CROWDJOIN T'.C' — a crowd-powered join.
	CrowdJoin PredKind = iota
	// CrowdEqual: T.C CROWDEQUAL 'v' — a crowd-powered selection.
	CrowdEqual
	// EquiJoin: T.C = T'.C' — a traditional join (weight-1 edges).
	EquiJoin
	// Equal: T.C = 'v' — a traditional selection.
	Equal
)

// String implements fmt.Stringer.
func (k PredKind) String() string {
	switch k {
	case CrowdJoin:
		return "CROWDJOIN"
	case CrowdEqual:
		return "CROWDEQUAL"
	case EquiJoin:
		return "="
	case Equal:
		return "="
	default:
		return "?"
	}
}

// Predicate is one conjunct of a WHERE clause. Join kinds use Left and
// Right; selection kinds use Left and Value.
type Predicate struct {
	Kind  PredKind
	Left  ColRef
	Right ColRef
	Value string
}

// String renders the predicate in CQL syntax.
func (p Predicate) String() string {
	switch p.Kind {
	case CrowdJoin:
		return fmt.Sprintf("%s CROWDJOIN %s", p.Left, p.Right)
	case CrowdEqual:
		return fmt.Sprintf("%s CROWDEQUAL %q", p.Left, p.Value)
	case EquiJoin:
		return fmt.Sprintf("%s = %s", p.Left, p.Right)
	default:
		return fmt.Sprintf("%s = %q", p.Left, p.Value)
	}
}

// ColDef is one column of a CREATE TABLE.
type ColDef struct {
	Name  string
	Type  string // "varchar", "int", "float"
	Size  int    // varchar length, 0 otherwise
	Crowd bool   // declared with CROWD: values may be FILLed
}

// String renders the definition.
func (c ColDef) String() string {
	crowd := ""
	if c.Crowd {
		crowd = " CROWD"
	}
	typ := c.Type
	if c.Type == "varchar" {
		typ = fmt.Sprintf("varchar(%d)", c.Size)
	}
	return fmt.Sprintf("%s%s %s", c.Name, crowd, typ)
}

// CreateTable is CREATE [CROWD] TABLE name (cols…).
type CreateTable struct {
	Name  string
	Crowd bool // CREATE CROWD TABLE: rows may be COLLECTed
	Cols  []ColDef
}

func (*CreateTable) stmt() {}

// String implements Statement.
func (c *CreateTable) String() string {
	crowd := ""
	if c.Crowd {
		crowd = "CROWD "
	}
	cols := make([]string, len(c.Cols))
	for i, col := range c.Cols {
		cols[i] = col.String()
	}
	return fmt.Sprintf("CREATE %sTABLE %s (%s);", crowd, c.Name, strings.Join(cols, ", "))
}

// Select is SELECT cols FROM tables WHERE preds
// [GROUP BY col] [ORDER BY col] [BUDGET n].
type Select struct {
	Star    bool
	Cols    []ColRef
	From    []string
	Where   []Predicate
	GroupBy *ColRef // crowd-powered grouping of the result (§4.2 Remark)
	OrderBy *ColRef // crowd-powered ordering of the result
	Budget  int     // 0 = unbounded
}

func (*Select) stmt() {}

// String implements Statement.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteString("*")
	} else {
		parts := make([]string, len(s.Cols))
		for i, c := range s.Cols {
			parts[i] = c.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(s.From, ", "))
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(s.Where))
		for i, p := range s.Where {
			parts[i] = p.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if s.GroupBy != nil {
		fmt.Fprintf(&b, " GROUP BY %s", s.GroupBy)
	}
	if s.OrderBy != nil {
		fmt.Fprintf(&b, " ORDER BY %s", s.OrderBy)
	}
	if s.Budget > 0 {
		fmt.Fprintf(&b, " BUDGET %d", s.Budget)
	}
	b.WriteString(";")
	return b.String()
}

// Explain is EXPLAIN <statement>: plan the target without issuing any
// crowd work and report the plan. Only SELECT targets are plannable;
// the engine rejects others with an unsupported error.
type Explain struct {
	Target Statement
}

func (*Explain) stmt() {}

// String implements Statement.
func (e *Explain) String() string {
	return "EXPLAIN " + e.Target.String()
}

// Fill is FILL Table.Col [WHERE preds] [BUDGET n]: crowd-fill missing
// (CNULL) values of a CROWD column.
type Fill struct {
	Target ColRef
	Where  []Predicate
	Budget int
}

func (*Fill) stmt() {}

// String implements Statement.
func (f *Fill) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FILL %s", f.Target)
	writeWhereBudget(&b, f.Where, f.Budget)
	b.WriteString(";")
	return b.String()
}

// Collect is COLLECT Table.Col, … [WHERE preds] [BUDGET n]: crowd-collect
// new tuples for a CROWD table.
type Collect struct {
	Cols   []ColRef
	Where  []Predicate
	Budget int
}

func (*Collect) stmt() {}

// String implements Statement.
func (c *Collect) String() string {
	var b strings.Builder
	parts := make([]string, len(c.Cols))
	for i, col := range c.Cols {
		parts[i] = col.String()
	}
	fmt.Fprintf(&b, "COLLECT %s", strings.Join(parts, ", "))
	writeWhereBudget(&b, c.Where, c.Budget)
	b.WriteString(";")
	return b.String()
}

func writeWhereBudget(b *strings.Builder, where []Predicate, budget int) {
	if len(where) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(where))
		for i, p := range where {
			parts[i] = p.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if budget > 0 {
		fmt.Fprintf(b, " BUDGET %d", budget)
	}
}
