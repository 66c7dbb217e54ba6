// Command turbohom loads an RDF dataset and runs SPARQL queries against it
// through the TurboHOM++ engine.
//
// Load an N-Triples file and run an inline query:
//
//	turbohom -data data.nt -query 'SELECT ?s WHERE { ?s ?p ?o . } LIMIT 5'
//
// Or generate a benchmark dataset on the fly and run one of its queries:
//
//	turbohom -dataset lubm -scale 2 -id Q9 -time
//
// Flags select the transformation (-transform direct|typeaware), disable
// the optimization suite (-noopt), set the worker count (-workers, default
// 0 = all CPUs; rows stream through the ordered parallel region pipeline in
// the same order as a sequential run, -stream-buffer bounds how many
// not-yet-printed rows the workers may buffer — per-row backpressure, so a
// pathological region cannot balloon memory), print only the solution
// count (-count), and repeat the query with the paper's timing protocol
// (-time).
//
// -explain skips row output and prints how the matcher ran the query: the
// matching order per pattern component, the cost model's estimated rows at
// each position, and the filter counters (search nodes, candidate regions,
// signature checked/killed). -costorder switches the order ranking from the
// paper's candidate-population heuristic to the statistics cost model.
//
// -update file.nt streams additional triples into the store WHILE the query
// executes, demonstrating the mutable store's snapshot isolation: the
// query's cursor pins the snapshot current when it starts and is undisturbed
// by the concurrent inserts; a count taken after loading reflects them. Use
// -compact to fold the accumulated delta back into the base afterwards.
//
// -save dir persists the loaded store as a binary snapshot directory, and
// -load dir opens one: cold start reads the frozen arrays directly — no
// N-Triples parsing, no transformation — and replays the write-ahead log, so
// mutations against a loaded store (-update, -compact) are durable across
// restarts. -syncwal fsyncs the log on every batch.
//
// Queries are prepared once and results stream through a cursor: rows print
// as the matcher finds them, and both Ctrl-C and the -max-rows cap abandon
// the remaining search instead of completing it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	turbohom "repro"
	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

func main() {
	// Ctrl-C / SIGTERM cancel the in-flight query — the cursor's context
	// propagates into the matcher, which abandons its remaining candidate
	// regions — and, under `serve`, start the graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// `turbohom serve` starts the SPARQL 1.1 Protocol endpoint; everything
	// else is the one-shot query CLI.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(ctx, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "turbohom serve:", err)
			os.Exit(1)
		}
		return
	}

	sf := addStoreFlags(flag.CommandLine)
	var (
		queryStr  = flag.String("query", "", "SPARQL query text")
		queryFile = flag.String("query-file", "", "file containing the SPARQL query")
		queryID   = flag.String("id", "", "benchmark query ID (e.g. Q2) from the generated dataset")
		countOnly = flag.Bool("count", false, "print only the solution count")
		explain   = flag.Bool("explain", false, "print the matching order, cost estimates, and filter counters instead of rows")
		updateF   = flag.String("update", "", "N-Triples file to insert concurrently while the query runs")
		compact   = flag.Bool("compact", false, "compact the delta overlay (after -update finishes, if given; durable stores also fold the WAL into the snapshot)")
		saveDir   = flag.String("save", "", "persist the loaded store as a snapshot directory")
		timeIt    = flag.Bool("time", false, "apply the paper's timing protocol and report elapsed ms")
		maxRows   = flag.Int("max-rows", 20, "stop after printing this many rows (0 = unlimited)")
	)
	flag.Parse()

	if err := run(ctx, sf, *queryStr, *queryFile, *queryID,
		*countOnly, *explain, *timeIt, *maxRows, *updateF, *compact, *saveDir); err != nil {
		fmt.Fprintln(os.Stderr, "turbohom:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, sf *storeFlags, queryStr, queryFile, queryID string,
	countOnly, explain, timeIt bool, maxRows int, updateFile string, compact bool, saveDir string) (retErr error) {

	store, err := sf.open()
	if err != nil {
		return err
	}
	// Close on every exit path, and do not swallow its error: on a durable
	// store (-load) Close flushes and releases the write-ahead log, and
	// under -syncwal a failure there means an acknowledged write may not be
	// on disk — exiting 0 would hide that.
	defer func() {
		if cerr := store.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("closing store: %w", cerr)
		}
	}()

	if saveDir != "" {
		if err := store.Save(saveDir); err != nil {
			return err
		}
		fmt.Printf("snapshot saved to %s\n", saveDir)
		if queryStr == "" && queryFile == "" && queryID == "" {
			return nil
		}
	}

	// Benchmark query IDs resolve against the named workload, whether the
	// triples came from the generator, a file, or a loaded snapshot.
	var queries []datagen.Query
	if queryID != "" {
		if sf.dataset == "" {
			return fmt.Errorf("-id needs -dataset to name the workload")
		}
		queries, err = workloadQueries(sf.dataset)
		if err != nil {
			return err
		}
	}

	st := store.Stats()
	fmt.Printf("loaded %d triples -> %d vertices, %d edges (%s transformation)\n",
		st.Triples, st.Vertices, st.Edges, st.Transformation)

	query := queryStr
	switch {
	case queryFile != "":
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		query = string(b)
	case queryID != "":
		for _, q := range queries {
			if strings.EqualFold(q.ID, queryID) {
				query = q.Text
			}
		}
		if query == "" {
			return fmt.Errorf("query %s not part of dataset %s", queryID, sf.dataset)
		}
	}
	if query == "" {
		return fmt.Errorf("no query: use -query, -query-file, or -id")
	}

	// Parse and plan once; every execution below reuses the prepared query.
	prepared, err := store.Prepare(query)
	if err != nil {
		return err
	}

	// Query-while-loading: stream the update file into the store in the
	// background. Executions that started before a batch landed keep their
	// snapshot; the post-load count below sees everything. If the query
	// itself fails, the loader is cancelled and no post-load stats print.
	if updateFile != "" {
		lctx, lcancel := context.WithCancel(ctx)
		loadDone := make(chan error, 1)
		go func() { loadDone <- streamInserts(lctx, store, updateFile) }()
		defer func() {
			if retErr != nil {
				lcancel()
				<-loadDone
				return
			}
			defer lcancel()
			if err := <-loadDone; err != nil {
				fmt.Fprintln(os.Stderr, "turbohom: update load:", err)
				return
			}
			n, err := prepared.Count(ctx)
			if err != nil {
				fmt.Fprintln(os.Stderr, "turbohom: post-load count:", err)
				return
			}
			st := store.Stats()
			fmt.Printf("after -update: %d triples -> %d vertices, %d edges; query now has %d solutions\n",
				st.Triples, st.Vertices, st.Edges, n)
			if compact {
				if err := store.Compact(); err != nil {
					fmt.Fprintln(os.Stderr, "turbohom: compact:", err)
					return
				}
				fmt.Println("delta compacted into base")
			}
		}()
	} else if compact {
		// Standalone -compact (no -update): fold whatever the store holds
		// — on a durable store this also rewrites the snapshot and resets
		// the write-ahead log.
		defer func() {
			if retErr != nil {
				return
			}
			if err := store.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "turbohom: compact:", err)
				return
			}
			fmt.Println("delta compacted into base")
		}()
	}

	if timeIt {
		n, err := prepared.Count(ctx)
		if err != nil {
			return err
		}
		var measureErr error
		d := bench.Measure(func() {
			if _, err := prepared.Count(ctx); err != nil && measureErr == nil {
				measureErr = err
			}
		})
		if measureErr != nil {
			if errors.Is(measureErr, context.Canceled) {
				fmt.Println("(timing interrupted)")
				return nil
			}
			return measureErr
		}
		fmt.Printf("%d solutions in %s ms (5 runs, best/worst dropped)\n", n, bench.Fmt(d))
		return nil
	}

	if explain {
		report, err := prepared.Explain(ctx)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	}

	if countOnly {
		n, err := prepared.Count(ctx)
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil
	}

	// Streaming is parallel in row order, so the cursor serves capped and
	// uncapped drains alike — no separate materializing path needed.
	rows := prepared.Select(ctx)
	defer rows.Close()
	fmt.Println(strings.Join(rows.Vars(), "\t"))
	printed := 0
	for rows.Next() {
		row := rows.Row()
		cells := make([]string, len(row))
		for j, t := range row {
			cells[j] = string(t)
		}
		fmt.Println(strings.Join(cells, "\t"))
		printed++
		if maxRows > 0 && printed == maxRows {
			fmt.Printf("... (output capped at %d rows; remaining search abandoned)\n", maxRows)
			return nil
		}
	}
	if err := rows.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Printf("(%d rows, interrupted)\n", printed)
			return nil
		}
		return err
	}
	fmt.Printf("(%d rows)\n", printed)
	return nil
}

// streamInserts reads file as N-Triples and inserts it into the store in
// batches, so queries interleave with many small atomic updates.
func streamInserts(ctx context.Context, store *turbohom.Store, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	r := rdf.NewReader(f)
	const batchSize = 512
	batch := make([]turbohom.Triple, 0, batchSize)
	inserted := 0
	flush := func() error {
		n, err := store.Insert(batch)
		inserted += n
		batch = batch[:0]
		return err
	}
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		batch = append(batch, t)
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("inserted %d new triples from %s (concurrently with the query)\n", inserted, file)
	return nil
}

// storeFlags are the flags the query CLI and `serve` share: where the
// store's triples come from and the options it opens with.
type storeFlags struct {
	dataFile, dataset, loadDir, transform string
	scale                                 int
	opts                                  turbohom.Options
}

// addStoreFlags registers the store flags on fs.
func addStoreFlags(fs *flag.FlagSet) *storeFlags {
	sf := &storeFlags{}
	fs.StringVar(&sf.dataFile, "data", "", "N-Triples file to load")
	fs.StringVar(&sf.dataset, "dataset", "", "generate a benchmark dataset: lubm, bsbm, yago, btc")
	fs.IntVar(&sf.scale, "scale", 1, "dataset scale factor (universities / products / people)")
	fs.StringVar(&sf.loadDir, "load", "", "open a durable store from a snapshot directory (instead of -data; -dataset then only names the -id workload)")
	fs.BoolVar(&sf.opts.SyncWAL, "syncwal", false, "fsync the write-ahead log on every insert/delete batch")
	fs.StringVar(&sf.transform, "transform", "typeaware", "graph transformation: typeaware or direct")
	fs.BoolVar(&sf.opts.DisableOptimizations, "noopt", false, "disable the TurboHOM++ optimization suite")
	fs.IntVar(&sf.opts.Workers, "workers", 0, "parallel workers per query over candidate regions (0 = all CPUs, 1 = sequential)")
	fs.IntVar(&sf.opts.StreamBuffer, "stream-buffer", 0, "max rows a query buffers ahead of its consumer (0 = 64x workers)")
	fs.BoolVar(&sf.opts.CostOrder, "costorder", false, "rank matching orders by graph statistics instead of the candidate-population heuristic")
	return sf
}

// open resolves -transform and opens the store from one of three sources:
// a durable snapshot directory (-load), an N-Triples file (-data), or a
// generated benchmark dataset (-dataset/-scale).
func (sf *storeFlags) open() (*turbohom.Store, error) {
	switch sf.transform {
	case "typeaware":
		sf.opts.Transformation = turbohom.TypeAware
	case "direct":
		sf.opts.Transformation = turbohom.Direct
	default:
		return nil, fmt.Errorf("unknown transformation %q", sf.transform)
	}
	switch {
	case sf.loadDir != "":
		// -dataset stays legal alongside -load: it names the benchmark
		// workload for -id without generating any triples.
		if sf.dataFile != "" {
			return nil, fmt.Errorf("-load replaces -data")
		}
		return turbohom.OpenDir(sf.loadDir, &sf.opts)
	case sf.dataFile != "":
		return turbohom.OpenFile(sf.dataFile, &sf.opts)
	case sf.dataset != "":
		ds, err := generated(sf.dataset, sf.scale)
		if err != nil {
			return nil, err
		}
		return turbohom.New(ds.Triples, &sf.opts), nil
	}
	return nil, fmt.Errorf("one of -data, -dataset, or -load is required")
}

func generated(name string, scale int) (*datagen.Dataset, error) {
	switch strings.ToLower(name) {
	case "lubm":
		return datagen.LUBMDataset(scale), nil
	case "bsbm":
		return datagen.BSBMDataset(scale * 100), nil
	case "yago":
		return datagen.YAGODataset(scale * 1000), nil
	case "btc":
		return datagen.BTCDataset(scale * 1000), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (lubm, bsbm, yago, btc)", name)
	}
}

func workloadQueries(name string) ([]datagen.Query, error) {
	switch strings.ToLower(name) {
	case "lubm":
		return datagen.LUBMQueries(), nil
	case "bsbm":
		return datagen.BSBMQueries(), nil
	case "yago":
		return datagen.YAGOQueries(), nil
	case "btc":
		return datagen.BTCQueries(), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}
