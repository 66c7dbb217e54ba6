package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"time"

	turbohom "repro"
	"repro/internal/server"
)

// serveMain implements `turbohom serve`: load a store (same -data/-dataset/
// -load sources as the query CLI) and serve the W3C SPARQL 1.1 Protocol on
// -addr until the context is cancelled (SIGINT/SIGTERM), then drain
// in-flight requests gracefully.
//
//	turbohom serve -dataset lubm -scale 8 -addr :3030
//	curl 'http://localhost:3030/sparql?query=SELECT...' \
//	     -H 'Accept: application/sparql-results+json'
//
// Responses stream row by row from the matcher's cursor, so a result of any
// size is served in bounded memory; disconnecting mid-response aborts the
// remaining search. With -load the store is durable and SPARQL updates
// (INSERT DATA / DELETE DATA) are logged to the WAL before applying;
// -readonly rejects them instead.
//
// Repeated SELECTs are answered from a snapshot-versioned result cache
// (64 MiB by default; size it with -cache-bytes, disable it with
// -cache-off): a hit replays the byte-identical response without running
// the matcher, the X-Turbohom-Cache header says which happened, and
// committed updates invalidate exactly the entries whose query footprint
// overlaps what the update touched — everything else is carried forward.
//
//	turbohom serve -dataset lubm -scale 8 -cache-bytes $((128<<20))
//	curl -sD- 'http://localhost:3030/sparql?query=...' | grep X-Turbohom-Cache
func serveMain(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("turbohom serve", flag.ExitOnError)
	sf := addStoreFlags(fs)
	var (
		addr       = fs.String("addr", ":3030", "listen address")
		timeout    = fs.Duration("timeout", 0, "per-query wall budget (0 = 30s, negative = unlimited)")
		maxRows    = fs.Int("max-rows", 0, "truncate SELECT responses after this many rows, announced in the X-Turbohom-Truncated trailer (0 = unlimited)")
		cacheSize  = fs.Int("prepared-cache", 0, "prepared-query LRU entries (0 = 128, negative disables)")
		drain      = fs.Duration("drain", 0, "graceful-shutdown budget for in-flight requests (0 = 10s)")
		readOnly   = fs.Bool("readonly", false, "reject SPARQL updates with 403")
		cacheBytes = fs.Int64("cache-bytes", 0, "result-cache byte budget (0 = 64 MiB)")
		cacheOff   = fs.Bool("cache-off", false, "disable the result cache")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	store, err := sf.open()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := store.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("closing store: %w", cerr)
		}
	}()

	resultCache := *cacheBytes
	if *cacheOff {
		resultCache = -1
	}
	srv := server.New(store, turbohom.ServerOptions{
		QueryTimeout:     *timeout,
		MaxRows:          *maxRows,
		PreparedCache:    *cacheSize,
		DrainTimeout:     *drain,
		ReadOnly:         *readOnly,
		ResultCacheBytes: resultCache,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	st := store.Stats()
	fmt.Printf("serving %d triples (%d vertices, %d edges, %s transformation)\n",
		st.Triples, st.Vertices, st.Edges, st.Transformation)
	fmt.Printf("SPARQL endpoint: http://%s/sparql  (health: /healthz)\n", l.Addr())

	start := time.Now()
	err = srv.Serve(ctx, l)
	m := srv.Metrics()
	fmt.Printf("server stopped after %s: %d queries (%d ok, %d failed, %d cancelled), %d rows, %d updates\n",
		time.Since(start).Round(time.Millisecond),
		m.QueriesStarted, m.QueriesOK, m.QueriesFailed, m.QueriesCancelled,
		m.RowsStreamed, m.UpdatesOK)
	return err
}
