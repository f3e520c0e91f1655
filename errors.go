package cdb

import (
	"cdb/internal/cql"
	"cdb/internal/engine"
	"cdb/internal/table"
)

// Typed errors. Every error the library returns that a caller might
// want to branch on is (or wraps) one of these sentinels, so
// errors.Is / errors.As replace string matching — and a network
// front-end can map them to status codes (ErrOverloaded → 429,
// ErrUnknownTable → 404, ParseError → 400).
var (
	// ErrOverloaded is Engine backpressure: the in-flight and queued
	// slots are all taken and the submission was shed. Retry later.
	ErrOverloaded = engine.ErrOverloaded

	// ErrUnknownTable marks a reference to a table the catalog does not
	// hold, wherever it is resolved: Insert, Dump, FILL/COLLECT targets
	// and SELECT FROM clauses all wrap it.
	ErrUnknownTable = table.ErrUnknownTable
)

// ParseError is a CQL syntax error carrying the byte offset and the
// offending token. Exec, Engine.Submit and OpenConfig return one (use
// errors.As) whenever the statement text itself is the problem.
type ParseError = cql.ParseError
