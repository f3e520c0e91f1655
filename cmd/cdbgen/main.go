// Command cdbgen emits the synthetic benchmark datasets as CSV files
// plus a ground-truth file mapping every generated string to its
// entity id, so external tools can score crowd answers.
//
//	cdbgen -dataset paper -scale 1.0 -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cdb/internal/dataset"
	"cdb/internal/obs"
)

func main() {
	var (
		name  = flag.String("dataset", "paper", "dataset: paper, award or example")
		scale = flag.Float64("scale", 1.0, "scale (1.0 = the paper's Table 2/3 sizes)")
		seed  = flag.Uint64("seed", 1, "random seed")
		out   = flag.String("out", ".", "output directory")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" || *memProfile != "" {
		stop, err := obs.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fatal(err)
			}
		}()
	}

	d, err := dataset.ByName(*name, dataset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	names := d.Catalog.Names()
	sort.Strings(names)
	for _, tn := range names {
		tb := d.Catalog.MustGet(tn)
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.csv", d.Name, tn))
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := tb.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, tb.Len())
	}
	fmt.Println("done; ground truth is embedded in the generator (use the cdb API's oracle for scoring)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdbgen:", err)
	os.Exit(1)
}
