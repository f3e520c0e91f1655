// Command cdbsh is an interactive CQL shell over a simulated crowd.
//
//	cdbsh                       # empty catalog
//	cdbsh -dataset example      # the paper's Table 1 running example
//	cdbsh -dataset paper -scale 0.1
//	cdbsh -connect host:8080    # remote mode against a cdbd server
//
// Statements end with ';'. Besides CQL (CREATE TABLE / SELECT …
// CROWDJOIN / CROWDEQUAL / FILL / COLLECT / BUDGET) the shell accepts:
//
//	\tables          list tables
//	\dump <table>    print a table (local mode)
//	\explain <sel>   plan a SELECT without executing it (zero crowd spend)
//	\metrics         print the process metrics (quantile summary)
//	\ledger          durable crowd-work ledger counters (remote mode)
//	\quit            exit
//
// In remote mode every SELECT runs over cdbd's streaming endpoint, so
// long crowd queries print their progress round by round as answers
// trickle in, instead of blocking silently.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"cdb"
	"cdb/client"
)

func main() {
	cfg := cdb.Config{WorkerStddev: 0.1, Metadata: true}
	flag.StringVar(&cfg.Dataset, "dataset", "", "preload dataset: example, paper or award")
	flag.Float64Var(&cfg.DatasetScale, "scale", 0.1, "dataset scale for paper/award")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.Workers, "workers", 50, "simulated worker count")
	flag.Float64Var(&cfg.WorkerAccuracy, "accuracy", 0.85, "mean worker accuracy")
	flag.BoolVar(&cfg.QualityControl, "quality", false, "enable CDB+ quality control (EM + task assignment)")

	var (
		connect = flag.String("connect", "", "remote mode: address of a cdbd server (host:port)")

		traceOut    = flag.String("trace", "", "write query-lifecycle spans as JSONL to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (\":0\" picks a port)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *connect != "" {
		os.Exit(runRemote(*connect))
	}

	if *metricsAddr != "" {
		bound, shutdown, err := cdb.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbsh: metrics: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "cdbsh: metrics on http://%s/metrics\n", bound)
	}
	if *cpuProfile != "" || *memProfile != "" {
		stop, err := cdb.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbsh: profiling: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "cdbsh: profiling: %v\n", err)
			}
		}()
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbsh: trace: %v\n", err)
			os.Exit(1)
		}
		jw := cdb.NewJSONLWriter(f)
		cfg.Observer = jw
		defer func() {
			if err := jw.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "cdbsh: trace: %v\n", err)
			}
			f.Close()
		}()
	}
	db, err := cdb.OpenConfig(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdbsh: config: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("cdbsh — crowd-powered CQL shell (end statements with ';', \\quit to exit)")
	if cfg.Dataset != "" {
		fmt.Printf("loaded dataset %q: tables %v\n", cfg.Dataset, db.TableNames())
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("cql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !command(db, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			execute(db, buf.String())
			buf.Reset()
		}
		prompt()
	}
}

func command(db *cdb.DB, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\tables":
		fmt.Println(strings.Join(db.TableNames(), ", "))
	case "\\meta":
		db.Metadata().WriteReport(os.Stdout)
	case "\\metrics":
		if err := cdb.WriteMetricsSummary(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	case "\\ledger":
		fmt.Println("the crowd-work ledger lives in the serving engine: run cdbd with -ledger-dir and use \\ledger from cdbsh -connect")
	case "\\dump":
		if len(fields) < 2 {
			fmt.Println("usage: \\dump <table>")
			break
		}
		rows, err := db.Dump(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		printGrid(rows)
	case "\\explain":
		if len(fields) < 2 {
			fmt.Println("usage: \\explain SELECT ... ;")
			break
		}
		p, err := db.Explain(strings.TrimSpace(strings.TrimPrefix(cmd, fields[0])))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		printPlan(p)
	default:
		fmt.Println("unknown command; try \\tables, \\dump <table>, \\explain <select>, \\meta, \\metrics, \\ledger, \\quit")
	}
	return true
}

// printPlan renders an EXPLAIN result: the join order, each step's
// predicted crowd work, and the planner's zero-spend guarantee.
func printPlan(p *cdb.Plan) {
	mode := "unplanned run"
	if p.Greedy {
		mode = "greedy"
	}
	fmt.Printf("plan %s (%s, %s)\n", p.JoinOrder, p.Structure, mode)
	rows := [][]string{{"step", "predicate", "candidates", "predicted", "note"}}
	for i, s := range p.Steps {
		note := ""
		if s.EarlyExit {
			note = "early exit: provably empty, 0 further HITs"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), s.Predicate,
			fmt.Sprintf("%d", s.CandidateEdges), fmt.Sprintf("%d", s.PredictedEdges), note,
		})
	}
	printGrid(rows)
	fmt.Printf("[predicted %d tasks (fixed order %d), planned in %dµs, 0 crowd assignments]\n",
		p.PredictedTasks, p.FixedTasks, p.PlanningMicros)
}

func execute(db *cdb.DB, stmt string) {
	res, err := db.Exec(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(res.Rows) > 0 {
		printGrid(append([][]string{res.Columns}, res.Rows...))
	}
	if res.Plan != nil && len(res.Rows) == 0 {
		// The EXPLAIN verb: render the plan instead of an empty grid.
		printPlan(res.Plan)
		return
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	if res.Stats.Tasks > 0 {
		fmt.Printf("[crowd: %d tasks, %d rounds, %d answers, $%.2f]\n",
			res.Stats.Tasks, res.Stats.Rounds, res.Stats.Assignments, res.Stats.Dollars)
	}
}

// runRemote is the -connect REPL: statements execute on a cdbd server
// through the typed client, SELECTs over the streaming endpoint with
// per-round progress lines. Returns the process exit code (non-zero
// when the final statement failed, so scripts piping statements in can
// assert success).
func runRemote(addr string) int {
	c := client.New(addr)
	ctx := context.Background()
	tables, err := c.Tables(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdbsh: connect %s: %v\n", addr, err)
		return 1
	}
	fmt.Printf("cdbsh — connected to cdbd at %s (tables: %s)\n", addr, strings.Join(tables, ", "))

	exitCode := 0
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("cql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !remoteCommand(ctx, c, trimmed) {
				return exitCode
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			if remoteExecute(ctx, c, buf.String()) {
				exitCode = 0
			} else {
				exitCode = 1
			}
			buf.Reset()
		}
		prompt()
	}
	return exitCode
}

func remoteCommand(ctx context.Context, c *client.Client, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\tables":
		tables, err := c.Tables(ctx)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(strings.Join(tables, ", "))
	case "\\explain":
		if len(fields) < 2 {
			fmt.Println("usage: \\explain SELECT ... ;")
			break
		}
		p, err := c.Explain(ctx, strings.TrimSpace(strings.TrimPrefix(cmd, fields[0])))
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		printPlan(p)
	case "\\ledger":
		resp, err := c.Queries(ctx)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		l := resp.Ledger
		if l == nil {
			fmt.Println("no ledger: the server runs without -ledger-dir")
			break
		}
		fmt.Printf("ledger: %d verdicts, %d statements, %d answers durable\n", l.Verdicts, l.Statements, l.Answers)
		fmt.Printf("        replayed %d records at boot (%d torn tails truncated)\n", l.Replayed, l.TornTruncated)
		fmt.Printf("        appended %d this session, %d replay hits (paid HIT work not re-issued)\n",
			l.Appended, l.Hits)
	default:
		fmt.Println("unknown remote command; try \\tables, \\explain <select>, \\ledger, \\quit")
	}
	return true
}

// remoteExecute streams one statement and reports success. EXPLAIN
// statements route to the dedicated /v1/explain endpoint, everything
// else to the streaming query path.
func remoteExecute(ctx context.Context, c *client.Client, stmt string) bool {
	if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(stmt)), "EXPLAIN") {
		p, err := c.Explain(ctx, stmt)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		printPlan(p)
		return true
	}
	res, err := c.QueryStream(ctx, stmt, func(u cdb.RoundUpdate) {
		fmt.Printf("[round %d: %d tasks, %d↑ %d↓, %d edges open]\n", u.Round, u.Tasks, u.Blue, u.Red, u.Open)
	})
	if err != nil {
		var pe *cdb.ParseError
		if errors.As(err, &pe) && pe.Offset >= 0 {
			fmt.Printf("error: %v\n       %s\n       %s^\n", err, strings.ReplaceAll(stmt, "\n", " "), strings.Repeat(" ", pe.Offset))
		} else {
			fmt.Println("error:", err)
		}
		return false
	}
	if len(res.Rows) > 0 {
		printGrid(append([][]string{res.Columns}, res.Rows...))
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	if res.Stats.Tasks > 0 {
		fmt.Printf("[crowd: %d tasks, %d rounds, %d answers, $%.2f]\n",
			res.Stats.Tasks, res.Stats.Rounds, res.Stats.Assignments, res.Stats.Dollars)
	}
	return true
}

func printGrid(rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, r := range rows {
		var sb strings.Builder
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
		}
		fmt.Println(strings.TrimRight(sb.String(), " "))
		if ri == 0 {
			fmt.Println(strings.Repeat("-", len(strings.TrimRight(sb.String(), " "))))
		}
	}
}
