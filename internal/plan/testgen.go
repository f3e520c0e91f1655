package plan

import (
	"fmt"
	"strings"

	"cdb/internal/stats"
	"cdb/internal/table"
)

// Case is one randomized multi-way CROWDJOIN scenario: a catalog of
// 3–6 tables and a SELECT joining them in a chain or star. The
// property tests and the plan experiment (cdbench -exp plan, guarded by
// internal/bench's TestPlanSavesHITs) share this generator so they
// exercise identical workloads.
type Case struct {
	Catalog *table.Catalog
	Query   string
	Tables  int
	// Star reports the shape (false = chain).
	Star bool
	// EmptyPred is the predicate index generated with disjoint
	// vocabularies — a provably empty join the planner must early-exit
	// on — or -1.
	EmptyPred int
}

// RandomCase generates one scenario from the rng: table sizes and
// per-predicate vocabulary sizes are skewed so candidate-edge counts
// differ visibly between predicates (what greedy ordering exploits),
// and a fraction of cases plant one predicate with zero similarity
// overlap (what early termination exploits). Values inside one
// vocabulary share most of their 2-grams, so the sim join produces
// dense candidates while exact equality drives ground truth.
func RandomCase(rng *stats.RNG, nTables int) Case {
	if nTables < 2 {
		nTables = 2
	}
	nPreds := nTables - 1
	c := Case{Tables: nTables, EmptyPred: -1}
	c.Star = nTables >= 3 && rng.Bool(0.35)
	if rng.Bool(0.3) {
		c.EmptyPred = rng.Intn(nPreds)
	}

	// One vocabulary per predicate, deliberately uneven in size: a
	// small vocabulary over many rows yields a dense candidate set, a
	// large one a sparse set. Distinct prefix letters keep predicates'
	// vocabularies dissimilar under 2-gram Jaccard.
	vocab := make([][]string, nPreds)
	right := make([][]string, nPreds)
	for i := range vocab {
		size := 2 + rng.Intn(10)
		words := make([]string, size)
		for k := range words {
			words[k] = fmt.Sprintf("v%c%02d", 'a'+byte(i%26), k)
		}
		vocab[i] = words
		right[i] = words
		if i == c.EmptyPred {
			// Zero 2-gram overlap with the left side: the sim join
			// yields no candidate edges at all.
			disjoint := make([]string, size)
			for k := range disjoint {
				disjoint[k] = fmt.Sprintf("zq%02dx", 50+k)
			}
			right[i] = disjoint
		}
	}

	pick := func(words []string) string { return words[rng.Intn(len(words))] }
	cat := table.NewCatalog()
	newTable := func(idx int, aVals, bVals func(row int) string, rows int) {
		tb := table.New(table.Schema{
			Name: fmt.Sprintf("T%d", idx),
			Columns: []table.Column{
				{Name: "a", Kind: table.String},
				{Name: "b", Kind: table.String},
			},
		})
		for r := 0; r < rows; r++ {
			tb.MustAppend(table.Tuple{table.SV(aVals(r)), table.SV(bVals(r))})
		}
		cat.Register(tb)
	}

	rows := func() int { return 3 + rng.Intn(10) }
	unused := func(r int) string { return fmt.Sprintf("u%d", r) }
	if c.Star {
		// Pred i joins T0.b with T(i+1).a: every spoke compares against
		// the same center column, so the spokes must share one
		// vocabulary or no embedding can satisfy all predicates at once.
		// Each spoke draws from a random-size subset of it, which skews
		// candidate-edge counts between predicates; the planted empty
		// predicate keeps its disjoint words.
		base := vocab[0]
		newTable(0, unused, func(int) string { return pick(base) }, rows())
		for i := 0; i < nPreds; i++ {
			words := base[:1+rng.Intn(len(base))]
			if i == c.EmptyPred {
				words = right[i]
			}
			newTable(i+1, func(int) string { return pick(words) }, unused, rows())
		}
	} else {
		// Chain: pred i joins Ti.b with T(i+1).a.
		newTable(0, unused, func(int) string { return pick(vocab[0]) }, rows())
		for i := 1; i < nTables; i++ {
			aWords := right[i-1]
			bWords := []string(nil)
			if i < nPreds {
				bWords = vocab[i]
			}
			newTable(i,
				func(int) string { return pick(aWords) },
				func(r int) string {
					if bWords == nil {
						return unused(r)
					}
					return pick(bWords)
				},
				rows())
		}
	}
	c.Catalog = cat

	var preds []string
	for i := 0; i < nPreds; i++ {
		if c.Star {
			preds = append(preds, fmt.Sprintf("T0.b CROWDJOIN T%d.a", i+1))
		} else {
			preds = append(preds, fmt.Sprintf("T%d.b CROWDJOIN T%d.a", i, i+1))
		}
	}
	var from []string
	for i := 0; i < nTables; i++ {
		from = append(from, fmt.Sprintf("T%d", i))
	}
	c.Query = fmt.Sprintf("SELECT * FROM %s WHERE %s;",
		strings.Join(from, ", "), strings.Join(preds, " AND "))
	return c
}
