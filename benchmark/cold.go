package main

import (
	"fmt"
	"runtime"
	"time"

	"cdb"
	"cdb/internal/dataset"
)

// coldSpec sizes a cold workload: which datasets at which scale, and
// per dataset the untimed warm list and the timed list at the reference
// run length.
type coldSpec struct {
	datasets []string
	scale    float64
	warm     map[string]quota
	timed    map[string]quota
}

// Every quota is a multiple of the number of constant combinations its
// shape has on that dataset (8 conferences, 6 countries, 48 pairs), so
// a list covers them evenly. The warm lists exist to push set-up
// towards half a second and the heap past its first growth steps.
var (
	coldSmall = coldSpec{
		datasets: []string{"paper", "award"}, scale: 0.12,
		warm: map[string]quota{
			"paper": {"2J": 2, "3J": 1},
			"award": {"2J": 2, "3J": 1},
		},
		timed: map[string]quota{
			"paper": {"2J": 4, "2J1S": 8, "3J": 4, "3J1S": 12, "3J2S": 48},
			"award": {"2J": 4, "2J1S": 6, "3J": 4, "3J1S": 12, "3J2S": 48},
		},
	}
	// cold_scaled affords 24 ops a pass: all conferences and countries
	// once, but only 8 of the 48 pairs.
	coldScaled = coldSpec{
		datasets: []string{"paper"}, scale: 0.3,
		warm:  map[string]quota{"paper": {"2J": 2, "2J1S": 8}},
		timed: map[string]quota{"paper": {"2J": 1, "2J1S": 8, "3J": 1, "3J1S": 6, "3J2S": 8}},
	}
)

// genData generates one of the two built-in datasets at the fixed
// dataset seed.
func genData(name string, scale float64) *dataset.Data {
	cfg := dataset.Config{Seed: datasetSeed, Scale: scale}
	if name == "award" {
		return dataset.GenAward(cfg)
	}
	return dataset.GenPaper(cfg)
}

// coldOps generates the op list of a cold workload — the warm list,
// then the timed list, each interleaved across datasets — and returns
// it with the length of the warm list.
func coldOps(spec coldSpec, seed int64, seconds int) ([]op, int, error) {
	var data []*dataset.Data
	for _, ds := range spec.datasets {
		data = append(data, genData(ds, spec.scale))
	}
	g, err := newGenerator(seed, data...)
	if err != nil {
		return nil, 0, err
	}
	var out []op
	nWarm := 0
	for i, phase := range []map[string]quota{spec.warm, spec.timed} {
		var lists [][]op
		for _, ds := range spec.datasets {
			q := phase[ds]
			if i == 1 {
				q = q.scaled(seconds)
			}
			l, err := g.draw(ds, q, true)
			if err != nil {
				return nil, 0, err
			}
			lists = append(lists, l)
		}
		out = append(out, interleave(lists...)...)
		if i == 0 {
			nWarm = len(out)
		}
	}
	return out, nWarm, nil
}

// openCold opens one default-Config DB per dataset of spec.
func openCold(spec coldSpec, tracing bool) (map[string]*cdb.DB, error) {
	dbs := map[string]*cdb.DB{}
	for _, ds := range spec.datasets {
		db, err := cdb.OpenConfig(cdb.Config{
			Seed:         crowdSeed,
			Dataset:      ds,
			DatasetScale: spec.scale,
			DatasetSeed:  datasetSeed,
			Tracing:      tracing,
		})
		if err != nil {
			return nil, fmt.Errorf("open %s@%v: %w", ds, spec.scale, err)
		}
		dbs[ds] = db
	}
	return dbs, nil
}

// coldPass runs one pass of a cold workload from fresh state: open the
// DBs, run the warm list untimed, then time every remaining op through
// DB.Exec with one caller. each (nil-safe) sees every result.
func coldPass(spec coldSpec, ops []op, nWarm int, tracing bool, each func(i int, res *cdb.Result)) (*passResult, error) {
	p := newPass()
	setup := startMeter()
	dbs, err := openCold(spec, tracing)
	if err != nil {
		return nil, err
	}
	run := func(i int, o op) {
		t0 := time.Now()
		res, err := dbs[o.dataset].Exec(o.stmt)
		if i >= nWarm {
			p.lat = append(p.lat, ms(time.Since(t0)))
		}
		if err != nil {
			p.add(err, cdb.Stats{}, 0)
			return
		}
		d, _ := digest(res)
		p.add(nil, res.Stats, d)
		p.hits += res.Stats.HITs
		if each != nil {
			each(i, res)
		}
	}
	for i, o := range ops[:nWarm] {
		run(i, o)
	}
	p.setupS, _, _ = setup.stop()

	m := startMeter()
	for i, o := range ops[nWarm:] {
		run(nWarm+i, o)
	}
	p.wallS, p.cpuMs, p.allocMB = m.stop()
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(dbs)
	return p, nil
}
