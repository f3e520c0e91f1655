package dataset

import (
	"fmt"
	"strings"

	"cdb/internal/stats"
	"cdb/internal/table"
)

// Oracle is the ground-truth store: every generated string maps to an
// entity id within its semantic domain, so the simulator knows which
// cell-value pairs truly join. It implements exec.Oracle.
type Oracle struct {
	domainOf map[string]string         // "table.col" (lower) -> domain
	entity   map[string]map[string]int // domain -> value -> entity id
}

// NewOracle creates an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{domainOf: map[string]string{}, entity: map[string]map[string]int{}}
}

// BindColumn declares that table.col draws its values from domain.
func (o *Oracle) BindColumn(tbl, col, domain string) {
	o.domainOf[strings.ToLower(tbl+"."+col)] = domain
}

// Register maps value to entity id within domain; it reports false on
// a collision with a different entity (the caller should retry with a
// different variant).
func (o *Oracle) Register(domain, value string, id int) bool {
	m := o.entity[domain]
	if m == nil {
		m = map[string]int{}
		o.entity[domain] = m
	}
	if prev, ok := m[value]; ok {
		return prev == id
	}
	m[value] = id
	return true
}

// EntityOf resolves a value in a domain (-1 when unknown).
func (o *Oracle) EntityOf(domain, value string) int {
	if id, ok := o.entity[domain][value]; ok {
		return id
	}
	return -1
}

// JoinMatch implements exec.Oracle.
func (o *Oracle) JoinMatch(lt, lc, rt, rc, lv, rv string) bool {
	dl := o.domainOf[strings.ToLower(lt+"."+lc)]
	dr := o.domainOf[strings.ToLower(rt+"."+rc)]
	if dl == "" || dl != dr {
		return false
	}
	il, ir := o.EntityOf(dl, lv), o.EntityOf(dr, rv)
	return il >= 0 && il == ir
}

// ColumnEntities implements exec.ColumnOracle: the domain tbl.col is
// bound to ("" when unbound) and each value's entity id in it (-1 when
// unregistered), so a plan resolves a column once instead of calling
// JoinMatch per candidate pair.
func (o *Oracle) ColumnEntities(tbl, col string, vals []string) (string, []int) {
	d := o.domainOf[strings.ToLower(tbl+"."+col)]
	ids := make([]int, len(vals))
	for i, v := range vals {
		ids[i] = o.EntityOf(d, v)
	}
	return d, ids
}

// SelMatch implements exec.Oracle.
func (o *Oracle) SelMatch(tbl, col, val, constant string) bool {
	d := o.domainOf[strings.ToLower(tbl+"."+col)]
	if d == "" {
		return false
	}
	iv, ic := o.EntityOf(d, val), o.EntityOf(d, constant)
	return iv >= 0 && iv == ic
}

// registry manufactures entities and registered dirty variants for one
// domain.
type registry struct {
	orc    *Oracle
	domain string
	d      *Dirtier
	canon  []string
	hot    []bool // confusable entities (drawn from small sub-pools)
}

func newRegistry(orc *Oracle, domain string, d *Dirtier) *registry {
	return &registry{orc: orc, domain: domain, d: d}
}

// add creates an entity with the given canonical string; returns its
// id, or -1 if the canonical collides with an existing entity.
func (r *registry) add(canonical string) int {
	id := len(r.canon)
	if !r.orc.Register(r.domain, canonical, id) {
		return -1
	}
	r.canon = append(r.canon, canonical)
	r.hot = append(r.hot, false)
	return id
}

// markHot flags an entity as confusable.
func (r *registry) markHot(id int) { r.hot[id] = true }

// size reports the number of entities.
func (r *registry) size() int { return len(r.canon) }

// variant returns a registered dirty variant of entity id; on
// persistent collisions it falls back to the canonical form.
func (r *registry) variant(id, maxOps int) string {
	for try := 0; try < 6; try++ {
		v := r.d.Variant(r.canon[id], maxOps)
		if r.orc.Register(r.domain, v, id) {
			return v
		}
	}
	return r.canon[id]
}

// Data bundles a generated dataset.
type Data struct {
	Catalog *table.Catalog
	Oracle  *Oracle
	Name    string
}

// Config controls generation.
type Config struct {
	Seed  uint64
	Scale float64 // 1.0 reproduces the paper's Table 2/3 cardinalities
}

// generators is the one table of built-in datasets: "paper" and
// "award" are the synthetic Table 2/3 benchmarks, "example" the
// 12-tuple running example of Table 1 (which ignores cfg).
var generators = []struct {
	name string
	gen  func(Config) *Data
}{
	{"paper", GenPaper},
	{"award", GenAward},
	{"example", func(Config) *Data { return RunningExample() }},
}

// ByName generates the named built-in dataset; an unknown name's error
// lists the valid ones.
func ByName(name string, cfg Config) (*Data, error) {
	names := make([]string, len(generators))
	for i, g := range generators {
		if g.name == name {
			return g.gen(cfg), nil
		}
		names[i] = g.name
	}
	return nil, fmt.Errorf("unknown dataset %q (want %s)", name, strings.Join(names, ", "))
}

func (c Config) scale(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// countryEntities registers the fixed country entities with their
// real-world spelling variants (the University.country column of the
// running example: "USA" vs "US").
func countryEntities(reg *registry) map[string][]string {
	sets := map[string][]string{
		"USA":     {"USA", "US", "United States", "U.S.", "America"},
		"UK":      {"UK", "United Kingdom", "Great Britain", "England"},
		"China":   {"China", "P.R. China", "PRC"},
		"Germany": {"Germany", "Deutschland"},
		"Canada":  {"Canada"},
		"Japan":   {"Japan"},
	}
	out := map[string][]string{}
	for canon, variants := range sets {
		id := reg.add(canon)
		if id < 0 {
			continue
		}
		for _, v := range variants {
			reg.orc.Register(reg.domain, v, id)
		}
		out[canon] = variants
	}
	return out
}

// conferenceEntities registers conference series with year/format
// variants ("sigmod16", "acm sigmod", …).
func conferenceEntities(reg *registry) []string {
	series := []string{"sigmod", "vldb", "icde", "sigir", "kdd", "www", "cikm", "edbt"}
	for _, s := range series {
		id := reg.add(s)
		if id < 0 {
			continue
		}
		for _, year := range []string{"08", "10", "12", "14", "15", "16"} {
			reg.orc.Register(reg.domain, s+year, id)
		}
		reg.orc.Register(reg.domain, "acm "+s, id)
		reg.orc.Register(reg.domain, s+" conference", id)
	}
	return series
}

// GenPaper synthesizes the paper dataset (Table 2): Paper(676),
// Citation(1239), Researcher(911), University(830) joined through
// person names, paper titles and university names.
func GenPaper(cfg Config) *Data {
	rng := stats.NewRNG(cfg.Seed ^ 0x9a9e7c)
	d := &Dirtier{R: rng.Split()}
	orc := NewOracle()

	persons := newRegistry(orc, "person", d)
	univs := newRegistry(orc, "univ", d)
	titles := newRegistry(orc, "title", d)
	confs := newRegistry(orc, "conf", d)
	countries := newRegistry(orc, "country", d)

	orc.BindColumn("Paper", "author", "person")
	orc.BindColumn("Researcher", "name", "person")
	orc.BindColumn("Paper", "title", "title")
	orc.BindColumn("Citation", "title", "title")
	orc.BindColumn("Researcher", "affiliation", "univ")
	orc.BindColumn("University", "name", "univ")
	orc.BindColumn("Paper", "conference", "conf")
	orc.BindColumn("University", "country", "country")

	countrySets := countryEntities(countries)
	confSeries := conferenceEntities(confs)
	countryList := make([]string, 0, len(countrySets))
	for c := range countrySets {
		countryList = append(countryList, c)
	}
	// Deterministic order for reproducibility (map iteration is random).
	sortStrings(countryList)

	// Entities.
	nPersons := cfg.scale(1100)
	fillPersons(persons, rng, nPersons)
	nUnivs := cfg.scale(620)
	for attempts := 0; univs.size() < nUnivs; attempts++ {
		// Hot universities share the "University of <place>" pattern and
		// the place pool (dense mutual similarity); distinct ones carry
		// invented places that match nothing else.
		hot := rng.Bool(0.45)
		place := stats.Pick(rng, placeNames)
		if !hot {
			place = InventName(rng)
		}
		var canon string
		switch rng.Intn(6) {
		case 0:
			canon = "University of " + place
		case 1:
			canon = place + " University"
		case 2:
			canon = place + " Institute of Technology"
		case 3:
			canon = place + " State University"
		case 4:
			canon = "Technical University of " + place
		default:
			canon = place + " College"
		}
		if attempts > 4*nUnivs {
			canon = "University of " + InventName(rng) + " " + InventName(rng)
			hot = false
		}
		if id := univs.add(canon); id >= 0 && hot {
			univs.markHot(id)
		}
	}
	univCountry := make([]string, univs.size())
	for i := range univCountry {
		if rng.Bool(0.5) {
			univCountry[i] = "USA"
		} else {
			univCountry[i] = stats.Pick(rng, countryList)
		}
	}
	nTitles := cfg.scale(1150)
	fillTitles(titles, rng, nTitles)

	// University table (830 rows).
	uniSchema := table.Schema{Name: "University", Columns: []table.Column{
		{Name: "name", Kind: table.String},
		{Name: "city", Kind: table.String},
		{Name: "country", Kind: table.String},
	}}
	uni := table.New(uniSchema)
	uniEntities := rng.Perm(univs.size())
	for i := 0; i < cfg.scale(830); i++ {
		ent := uniEntities[i%len(uniEntities)]
		c := univCountry[ent]
		uni.MustAppend(table.Tuple{
			table.SV(univs.variant(ent, 2)),
			table.SV(stats.Pick(rng, cityNames)),
			table.SV(stats.Pick(rng, countrySets[c])),
		})
	}

	// Researcher table (911 rows).
	resSchema := table.Schema{Name: "Researcher", Columns: []table.Column{
		{Name: "affiliation", Kind: table.String},
		{Name: "name", Kind: table.String},
		{Name: "gender", Kind: table.String, Crowd: true},
	}}
	res := table.New(resSchema)
	resPersons := rng.Perm(persons.size())
	nRes := cfg.scale(911)
	researcherEnts := make([]int, 0, nRes)
	for i := 0; i < nRes; i++ {
		ent := resPersons[i%len(resPersons)]
		researcherEnts = append(researcherEnts, ent)
		affil := uniEntities[rng.Intn(len(uniEntities))]
		gender := "male"
		if rng.Bool(0.3) {
			gender = "female"
		}
		res.MustAppend(table.Tuple{
			table.SV(univs.variant(affil, 2)),
			table.SV(persons.variant(ent, 2)),
			table.SV(gender),
		})
	}

	// Paper table (676 rows): true author matches are drawn from the
	// DISTINCTIVE researcher entities only — answer chains live on
	// low-fan-out tuples while confusable entities supply the red
	// candidate mass the optimizers must refute (the Figure-1 regime).
	papSchema := table.Schema{Name: "Paper", Columns: []table.Column{
		{Name: "author", Kind: table.String},
		{Name: "title", Kind: table.String},
		{Name: "conference", Kind: table.String},
	}}
	pap := table.New(papSchema)
	nPap := cfg.scale(676)
	titlePerm := rng.Perm(titles.size())
	paperTitleEnt := make([]int, nPap)
	distinctResearchers := make([]int, 0, len(researcherEnts))
	for _, ent := range researcherEnts {
		if !persons.hot[ent] {
			distinctResearchers = append(distinctResearchers, ent)
		}
	}
	for i := 0; i < nPap; i++ {
		var author int
		if rng.Bool(0.35) && len(distinctResearchers) > 0 {
			author = stats.Pick(rng, distinctResearchers)
		} else {
			author = rng.Intn(persons.size())
		}
		tEnt := titlePerm[i%len(titlePerm)]
		paperTitleEnt[i] = tEnt
		pap.MustAppend(table.Tuple{
			table.SV(persons.variant(author, 2)),
			table.SV(titles.variant(tEnt, 2)),
			table.SV(confs.variant(orcEntity(orc, "conf", pickConf(rng, confSeries)), 1)),
		})
	}

	// Citation table (1239 rows): ~50% cite existing paper titles.
	citSchema := table.Schema{Name: "Citation", Columns: []table.Column{
		{Name: "title", Kind: table.String},
		{Name: "number", Kind: table.Int},
	}}
	cit := table.New(citSchema)
	var distinctTitledPapers []int
	for i := 0; i < nPap; i++ {
		if !titles.hot[paperTitleEnt[i]] {
			distinctTitledPapers = append(distinctTitledPapers, i)
		}
	}
	for i := 0; i < cfg.scale(1239); i++ {
		var tEnt int
		if rng.Bool(0.35) && len(distinctTitledPapers) > 0 {
			tEnt = paperTitleEnt[stats.Pick(rng, distinctTitledPapers)]
		} else {
			tEnt = rng.Intn(titles.size())
		}
		cit.MustAppend(table.Tuple{
			table.SV(titles.variant(tEnt, 2)),
			table.IV(int64(rng.Intn(120))),
		})
	}

	cat := table.NewCatalog()
	cat.Register(uni)
	cat.Register(res)
	cat.Register(pap)
	cat.Register(cit)
	return &Data{Catalog: cat, Oracle: orc, Name: "paper"}
}

// GenAward synthesizes the award dataset (Table 3): Celebrity(1498),
// City(3220), Winner(2669), Award(1192).
func GenAward(cfg Config) *Data {
	rng := stats.NewRNG(cfg.Seed ^ 0x4a3bd1)
	d := &Dirtier{R: rng.Split()}
	orc := NewOracle()

	persons := newRegistry(orc, "person", d)
	cities := newRegistry(orc, "city", d)
	awards := newRegistry(orc, "award", d)
	countries := newRegistry(orc, "country", d)

	orc.BindColumn("Celebrity", "name", "person")
	orc.BindColumn("Winner", "name", "person")
	orc.BindColumn("Celebrity", "birthplace", "city")
	orc.BindColumn("City", "birthplace", "city")
	orc.BindColumn("Winner", "award", "award")
	orc.BindColumn("Award", "name", "award")
	orc.BindColumn("Award", "place", "city")
	orc.BindColumn("City", "country", "country")

	countrySets := countryEntities(countries)
	countryList := make([]string, 0, len(countrySets))
	for c := range countrySets {
		countryList = append(countryList, c)
	}
	sortStrings(countryList)

	nPersons := cfg.scale(1800)
	fillPersons(persons, rng, nPersons)
	nCities := cfg.scale(1400)
	for attempts := 0; cities.size() < nCities; attempts++ {
		var base string
		hot := rng.Bool(0.45)
		if hot {
			base = stats.Pick(rng, cityNames)
			if rng.Bool(0.4) {
				base = base + " " + stats.Pick(rng, placeNames)
			}
		} else {
			base = InventName(rng)
			if rng.Bool(0.3) {
				base = base + " " + InventName(rng)
			}
		}
		if attempts > 4*nCities {
			base = InventName(rng) + " " + InventName(rng)
			hot = false
		}
		if id := cities.add(base); id >= 0 && hot {
			cities.markHot(id)
		}
	}
	nAwards := cfg.scale(900)
	for awards.size() < nAwards {
		var canon string
		hot := rng.Bool(0.4)
		if hot {
			canon = stats.Pick(rng, awardWords) + " " + stats.Pick(rng, awardWords) +
				" for Best " + stats.Pick(rng, awardWords)
		} else {
			canon = InventName(rng) + " " + stats.Pick(rng, awardWords) + " for " + InventName(rng)
		}
		if id := awards.add(canon); id >= 0 && hot {
			awards.markHot(id)
		}
	}

	celSchema := table.Schema{Name: "Celebrity", Columns: []table.Column{
		{Name: "name", Kind: table.String},
		{Name: "birthplace", Kind: table.String},
		{Name: "birthday", Kind: table.String},
	}}
	cel := table.New(celSchema)
	celebEnts := make([]int, 0, cfg.scale(1498))
	personPerm := rng.Perm(persons.size())
	for i := 0; i < cfg.scale(1498); i++ {
		ent := personPerm[i%len(personPerm)]
		celebEnts = append(celebEnts, ent)
		cel.MustAppend(table.Tuple{
			table.SV(persons.variant(ent, 2)),
			table.SV(cities.variant(rng.Intn(cities.size()), 2)),
			table.SV(fmt.Sprintf("%d-%02d-%02d", 1920+rng.Intn(85), 1+rng.Intn(12), 1+rng.Intn(28))),
		})
	}

	citySchema := table.Schema{Name: "City", Columns: []table.Column{
		{Name: "birthplace", Kind: table.String},
		{Name: "country", Kind: table.String},
	}}
	cty := table.New(citySchema)
	cityPerm := rng.Perm(cities.size())
	for i := 0; i < cfg.scale(3220); i++ {
		ent := cityPerm[i%len(cityPerm)]
		c := stats.Pick(rng, countryList)
		if rng.Bool(0.4) {
			c = "USA"
		}
		cty.MustAppend(table.Tuple{
			table.SV(cities.variant(ent, 2)),
			table.SV(stats.Pick(rng, countrySets[c])),
		})
	}

	winSchema := table.Schema{Name: "Winner", Columns: []table.Column{
		{Name: "name", Kind: table.String},
		{Name: "award", Kind: table.String},
	}}
	win := table.New(winSchema)
	winnerAwardEnt := make([]int, 0, cfg.scale(2669))
	for i := 0; i < cfg.scale(2669); i++ {
		var ent int
		if rng.Bool(0.35) && len(celebEnts) > 0 {
			ent = stats.Pick(rng, celebEnts)
		} else {
			ent = rng.Intn(persons.size())
		}
		aEnt := rng.Intn(awards.size())
		winnerAwardEnt = append(winnerAwardEnt, aEnt)
		win.MustAppend(table.Tuple{
			table.SV(persons.variant(ent, 2)),
			table.SV(awards.variant(aEnt, 2)),
		})
	}

	awSchema := table.Schema{Name: "Award", Columns: []table.Column{
		{Name: "name", Kind: table.String},
		{Name: "place", Kind: table.String},
	}}
	aw := table.New(awSchema)
	for i := 0; i < cfg.scale(1192); i++ {
		var aEnt int
		if rng.Bool(0.45) && len(winnerAwardEnt) > 0 {
			aEnt = stats.Pick(rng, winnerAwardEnt)
		} else {
			aEnt = rng.Intn(awards.size())
		}
		aw.MustAppend(table.Tuple{
			table.SV(awards.variant(aEnt, 2)),
			table.SV(cities.variant(rng.Intn(cities.size()), 1)),
		})
	}

	cat := table.NewCatalog()
	cat.Register(cel)
	cat.Register(cty)
	cat.Register(win)
	cat.Register(aw)
	return &Data{Catalog: cat, Oracle: orc, Name: "award"}
}

func orcEntity(o *Oracle, domain, value string) int {
	id := o.EntityOf(domain, value)
	if id < 0 {
		panic(fmt.Sprintf("dataset: unregistered %s value %q", domain, value))
	}
	return id
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// pickConf skews the conference distribution (SIGMOD papers dominate,
// so selection predicates keep a healthy answer set).
func pickConf(rng *stats.RNG, series []string) string {
	if rng.Bool(0.35) {
		return "sigmod"
	}
	return stats.Pick(rng, series)
}

// fillPersons populates a person registry with a mix of highly
// confusable names (drawn from small sub-pools, so cross-entity
// similarity is frequent) and distinctive ones — the per-tuple
// heterogeneity that makes tuple-level optimization shine (Figure 1:
// different tuples want different join directions).
func fillPersons(persons *registry, rng *stats.RNG, n int) {
	hotFirst := firstNames[:14]

	hotLast := lastNames[:18]
	for attempts := 0; persons.size() < n; attempts++ {
		var name string
		hot := rng.Bool(0.45)
		if hot {
			name = stats.Pick(rng, hotFirst) + " " + stats.Pick(rng, hotLast)
		} else {
			// Distinctive: invented surname (and often an invented given
			// name) keeps unrelated people below the similarity
			// threshold.
			if rng.Bool(0.5) {
				name = stats.Pick(rng, firstNames) + " " + InventName(rng)
			} else {
				name = InventName(rng) + " " + InventName(rng)
			}
		}
		if attempts > 4*n {
			name = InventName(rng) + " " + InventName(rng) + " " + InventName(rng)
			hot = false
		}
		if id := persons.add(name); id >= 0 && hot {
			persons.markHot(id)
		}
	}
}

// fillTitles mixes short generic titles (many cross-entity similarity
// hits) with long distinctive ones.
func fillTitles(titles *registry, rng *stats.RNG, n int) {
	hotPool := titleWords[:16]
	for titles.size() < n {
		var words []string
		hot := rng.Bool(0.3)
		if hot {
			k := 3 + rng.Intn(2)
			for i := 0; i < k; i++ {
				words = append(words, stats.Pick(rng, hotPool))
			}
		} else {
			k := 5 + rng.Intn(3)
			for i := 0; i < k; i++ {
				// Mostly invented vocabulary: distinct titles share few
				// 2-grams with anything else.
				if rng.Bool(0.7) {
					words = append(words, InventWord(rng))
				} else {
					words = append(words, stats.Pick(rng, titleWords))
				}
			}
		}
		if id := titles.add(strings.Join(words, " ")); id >= 0 && hot {
			titles.markHot(id)
		}
	}
}
