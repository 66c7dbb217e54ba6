// Package turbohom is an in-memory RDF store and SPARQL engine built on
// subgraph-isomorphism technology, reproducing "Taming Subgraph Isomorphism
// for RDF Query Processing" (Kim, Shin, Han, Hong, Chafi — VLDB 2015).
//
// The paper's thesis is that a state-of-the-art subgraph isomorphism
// algorithm (TurboISO), relaxed to graph homomorphism and tamed for RDF,
// outperforms purpose-built RDF engines — often by orders of magnitude.
// This package is the public face of that system:
//
//   - Store loads RDF triples (from memory or N-Triples), transforms them
//     into a labeled graph under either the direct or the type-aware
//     transformation (paper §3.2, §4.1), and answers SPARQL queries —
//     basic graph patterns with FILTER, OPTIONAL, and UNION — through the
//     TurboHOM++ matching engine with its full optimization suite (+INT,
//     -NLF, -DEG, +REUSE; paper §4.3), the NEC query reduction (§2.2),
//     and parallel execution (§5.2). Matching runs on all CPUs by default
//     (Options.Workers = 0 means runtime.GOMAXPROCS) on every path,
//     including streaming cursors: the ordered region pipeline searches
//     candidate regions concurrently and reorders rows back into the
//     sequential enumeration order, so results are byte-identical for
//     every worker count.
//
//   - Insert, Delete, and Compact mutate the store while it serves
//     queries. Updates land in a delta overlay merged on the fly with the
//     compacted base (the differential-index design of RDF-3X), and
//     Compact folds the delta back in.
//
//   - Prepared amortizes the SPARQL front end: Store.Prepare parses and
//     plans once, and the resulting Prepared is immutable and safe for
//     concurrent execution from many goroutines.
//
//   - Rows streams solutions as the matcher finds them. The engine's
//     early-termination machinery is wired straight into the cursor:
//     closing a Rows (or cancelling its context) after k rows abandons the
//     remaining candidate regions instead of scanning them, and a SPARQL
//     LIMIT stops the search the same way once it has its rows.
//
//   - Graph and Pattern expose the underlying matcher for generic labeled
//     graphs: classic subgraph isomorphism and e-graph homomorphism
//     (paper Definitions 1 and 2) without any RDF machinery, both
//     materialized (FindIsomorphisms) and streamed (Isomorphisms).
//
// # Quick start
//
//	store, err := turbohom.OpenFile("data.nt", nil)
//	if err != nil { ... }
//
//	// Parse and plan once; execute many times, concurrently if you like.
//	students, err := store.Prepare(`
//	    PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
//	    PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
//	    SELECT ?x WHERE { ?x rdf:type ub:Student . }`)
//	if err != nil { ... }
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//
//	rows := students.Select(ctx)
//	defer rows.Close()
//	for rows.Next() {
//	    var x turbohom.Term
//	    if err := rows.Scan(&x); err != nil { ... }
//	    fmt.Println(x)
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Or range directly with the iterator form:
//
//	for row, err := range students.All(ctx) {
//	    if err != nil { ... }
//	    fmt.Println(row[0])
//	}
//
// # Updates and snapshot isolation
//
// Insert and Delete apply batches of triples atomically; Compact folds the
// accumulated delta back into the base representation. Every query
// execution pins the immutable snapshot current at its start: a Rows cursor
// opened before an update enumerates exactly the pre-update solutions even
// when drained afterwards — including across a mid-stream Compact — while
// executions started after the update see all of it. Writers are
// serialized; readers never block and never observe a partial batch.
// Duplicate inserts and absent deletes are ignored (the store is a triple
// set), and literal terms are canonicalized — "café" spelled with a \u
// escape and spelled raw intern as the same term. Under the type-aware
// transformation an rdfs:subClassOf change rewrites the label closure and
// triggers an implicit compaction.
//
// # Streaming vs buffering
//
// Basic graph patterns, FILTER, OPTIONAL, UNION, LIMIT/OFFSET and DISTINCT
// all stream: each row flows from the matcher's visitor callback to the
// cursor without materializing the result set (DISTINCT keeps a seen-set
// but emits incrementally). Streaming is parallel by default and bounded
// per row: workers search candidate regions through resumable cursors,
// buffering at most Options.StreamBuffer not-yet-delivered rows
// (backpressure that suspends a worker mid-region, so even one region with
// an enormous result set streams its first rows promptly in bounded
// memory), and a reorder stage delivers rows in the sequential order.
// ORDER BY must see every solution before the first row leaves, but no
// longer buffers-then-sorts monolithically: ORDER BY with LIMIT k retains
// only the best k+offset rows in a bounded heap (O(k) result memory), and
// unbounded ORDER BY sorts bounded runs as rows arrive and merges them on
// emission. Store.Query and Store.Count remain as one-shot convenience
// wrappers over the prepared path.
//
// # Serving over HTTP
//
// The engine serves real traffic through `turbohom serve`, a W3C SPARQL
// 1.1 Protocol endpoint (internal/server):
//
//	turbohom serve -dataset lubm -scale 8 -addr :3030
//	curl 'http://localhost:3030/sparql?query=SELECT...' \
//	     -H 'Accept: application/sparql-results+json'
//
// SELECT and ASK are answered over GET or POST with content-negotiated
// JSON or XML results; responses stream row by row straight from a Rows
// cursor, so the contracts above carry to the wire: a result of any size
// is served in bounded per-connection memory (the client's TCP window is
// the backpressure signal that suspends the query's workers), a client
// that disconnects mid-response aborts the remaining search, and every
// response observes one snapshot. SPARQL updates (INSERT DATA / DELETE
// DATA) map onto Store.Update — WAL-durable when the store was opened
// with -load. Per-query wall budgets, row caps (announced in the
// X-Turbohom-Truncated trailer), a prepared-query LRU, graceful drain on
// shutdown, and /healthz counters are built in; see DESIGN.md
// ("Serving"). The serving path's latency, rows/s and cache replay are
// measured by the serve_zipf workload of the benchmark in benchmark/
// (bash benchmark/run.sh --workload serve_zipf).
//
// # NEC query reduction
//
// Star-shaped patterns that repeat a predicate over interchangeable
// variables —
//
//	SELECT ?h ?a ?b ?c WHERE { ?h :knows ?a . ?h :knows ?b . ?h :knows ?c . }
//
// compile to equivalent query vertices that the matcher merges into one
// Neighborhood Equivalence Class (paper §2.2) and expands by combination:
// candidate lists and joins are computed once per class, not once per
// member, and Count totals the expansions without enumerating them. The
// reduction is on by default and result sets are identical either way; set
// Options.NEC = NECOff to disable it (ablations, differential testing).
// DESIGN.md describes the mechanism and its soundness argument.
//
// The internal packages hold the substrates: the matching engine
// (internal/core), graph storage (internal/graph), transformations
// (internal/transform), the SPARQL front end (internal/sparql,
// internal/engine), the HTTP protocol endpoint (internal/server), two
// baseline RDF engines used by the paper's experiments
// (internal/baseline/...), benchmark dataset generators
// (internal/datagen), and the experiment harness (internal/bench).
//
// The concurrency and determinism contracts above — snapshot pinning,
// borrowed visitor rows, byte-identical row order, prompt cancellation,
// paired binding undos — are enforced mechanically by the repository's
// own go/analysis suite: `go run ./cmd/turbolint ./...` must stay clean
// (CI requires it). DESIGN.md ("Enforced invariants") maps each analyzer
// to its invariant and the historical bug it pins down.
package turbohom
