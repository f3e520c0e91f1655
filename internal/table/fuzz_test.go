package table

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCSVRoundTrip: a table WriteCSV saves loads back through ReadCSV
// as it was, or WriteCSV refuses it. cols picks the columns beside the
// String one (bit 0 an Int, bit 1 a Float), nulls which cells of the
// first row are CNULL; the second row holds s reversed.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add(uint8(0), "CNULL", int64(0), 0.0, uint8(0))
	f.Add(uint8(3), "a\r\nb", int64(7), 1.5, uint8(0))
	f.Add(uint8(0), "", int64(0), 0.0, uint8(0))
	f.Add(uint8(3), "", int64(-1), math.Inf(-1), uint8(6))
	f.Add(uint8(1), " \"quoted\", \n", int64(42), 0.0, uint8(1))
	f.Fuzz(func(t *testing.T, cols uint8, s string, i int64, x float64, nulls uint8) {
		schema := Schema{Name: "T", Columns: []Column{{Name: "s", Kind: String}}}
		first := Tuple{SV(s)}
		if cols&1 != 0 {
			schema.Columns = append(schema.Columns, Column{Name: "i", Kind: Int})
			first = append(first, IV(i))
		}
		if cols&2 != 0 {
			schema.Columns = append(schema.Columns, Column{Name: "f", Kind: Float})
			first = append(first, FV(x))
		}
		second := append(Tuple{SV(reverse(s))}, first[1:]...)
		for c := range first {
			if nulls&(1<<c) != 0 {
				first[c] = CNull(first[c].Kind)
			}
		}
		tb := New(schema)
		tb.MustAppend(first)
		tb.MustAppend(second)

		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			return
		}
		got, err := ReadCSV(schema, &buf)
		if err != nil {
			t.Fatalf("WriteCSV saved %v, ReadCSV refuses it: %v", tb.Rows, err)
		}
		if len(got.Rows) != len(tb.Rows) {
			t.Fatalf("saved %d rows %v, loaded %d %v", len(tb.Rows), tb.Rows, len(got.Rows), got.Rows)
		}
		for r, row := range tb.Rows {
			for c, v := range row {
				if w := got.Rows[r][c]; !sameValue(v, w) {
					t.Fatalf("row %d column %s: saved %#v, loaded %#v", r+1, schema.Columns[c].Name, v, w)
				}
			}
		}
	})
}

// sameValue is Value.Equal with NaN equal to NaN: a saved NaN loads back
// as NaN, which == cannot see.
func sameValue(a, b Value) bool {
	if a.Kind == Float && !a.Null && !b.Null && math.IsNaN(a.F) {
		return b.Kind == Float && math.IsNaN(b.F)
	}
	return a.Equal(b)
}

func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}
