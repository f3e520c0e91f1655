// Analytics: crowd-powered GROUP BY and ORDER BY (§4.2 Remark).
//
// After the crowd joins papers with their citations, the conference
// strings are still dirty ("sigmod16", "acm sigmod", "sigmod10" are
// the same venue). GROUP BY runs crowdsourced entity resolution over
// them; ORDER BY ranks the joined rows with a crowd-compared quicksort.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"strings"

	"cdb"
)

func main() {
	db := cdb.Open(
		cdb.WithDataset("example", 0, 1),
		cdb.WithWorkers(30, 0.92, 0.04),
		cdb.WithSeed(8),
		cdb.WithMetadata(),
	)

	fmt.Println("-- venues of cited papers (GROUP BY collapses dirty variants) --")
	res := db.MustExec(`SELECT Paper.conference
		FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title
		GROUP BY Paper.conference;`)
	for _, row := range res.Rows {
		fmt.Printf("  %-12s x%s\n", row[0], row[1])
	}
	fmt.Printf("  (%d crowd tasks total)\n\n", res.Stats.Tasks)

	fmt.Println("-- cited papers by citation count (crowd-compared ORDER BY) --")
	res = db.MustExec(`SELECT Paper.title, Citation.number
		FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title
		ORDER BY Citation.number;`)
	for _, row := range res.Rows {
		title := row[0]
		if len(title) > 52 {
			title = title[:49] + "..."
		}
		fmt.Printf("  %-52s %s\n", title, row[1])
	}
	fmt.Printf("  (%d crowd tasks in %d rounds)\n", res.Stats.Tasks, res.Stats.Rounds)

	fmt.Println("\n-- crowd metadata (§2.1's Task/Worker/Assignment store) --")
	var sb strings.Builder
	db.Metadata().WriteReport(&sb)
	fmt.Print(sb.String())
}
