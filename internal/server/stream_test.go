package server_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	turbohom "repro"
	"repro/internal/rdf"
	"repro/internal/server"
)

// fanTriples builds a hub vertex with n children on each of two predicates.
// The fan query joins both fans through the shared hub, so n children yield
// n*n rows from 2n+ triples — a cheap way to make a response that dwarfs any
// socket buffer. The two predicates differ so NEC merging cannot collapse
// the query vertices. A second hub with one child on each predicate follows
// the first: fanQuery pins the first hub and never sees it, while
// fanHubsQuery leaves the hub a variable with two start candidates.
func fanTriples(n int) []turbohom.Triple {
	hub := rdf.NewIRI("http://x/hub")
	p := rdf.NewIRI("http://x/p")
	q := rdf.NewIRI("http://x/q")
	ts := make([]turbohom.Triple, 0, 2*n+2)
	for i := 0; i < n; i++ {
		ts = append(ts,
			turbohom.Triple{S: hub, P: p, O: rdf.NewIRI(fmt.Sprintf("http://x/p%04d", i))},
			turbohom.Triple{S: hub, P: q, O: rdf.NewIRI(fmt.Sprintf("http://x/q%04d", i))},
		)
	}
	hub2 := rdf.NewIRI("http://x/hub2")
	return append(ts,
		turbohom.Triple{S: hub2, P: p, O: rdf.NewIRI("http://x/p2")},
		turbohom.Triple{S: hub2, P: q, O: rdf.NewIRI("http://x/q2")},
	)
}

// fanQuery pins the first hub: one start candidate, n*n rows, searched
// sequentially at any Workers.
const fanQuery = `SELECT ?a ?b WHERE { <http://x/hub> <http://x/p> ?a . <http://x/hub> <http://x/q> ?b . }`

// fanHubsQuery matches both hubs: n*n+1 rows from two start candidates, so
// a store with Workers > 1 streams it through the region pipeline.
const fanHubsQuery = `SELECT ?a ?b WHERE { ?h <http://x/p> ?a . ?h <http://x/q> ?b . }`

// requirePipelined fails the test unless query has at least two start
// candidates on store, which is what sends a Workers > 1 run through the
// pipeline's workers instead of one sequential Cursor.
func requirePipelined(t *testing.T, store *turbohom.Store, query string) {
	t.Helper()
	p, err := store.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	var prof turbohom.ProfileResult
	rows := p.SelectProfiled(context.Background(), &prof)
	rows.Next()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if prof.StartCandidates < 2 {
		t.Fatalf("%d start candidates: the query runs sequentially, not through the pipeline", prof.StartCandidates)
	}
}

// totalAlloc reports cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// blockingWriter is a ResponseWriter that accepts limit bytes and then
// blocks — the in-process analogue of a client whose TCP window is full.
// Unblocking happens only through request-context cancellation, exactly as
// net/http unblocks a stuck Write when the connection dies.
type blockingWriter struct {
	ctx     context.Context
	header  http.Header
	limit   int
	written int
	blocked chan struct{} // closed the first time Write stalls
}

func newBlockingWriter(ctx context.Context, limit int) *blockingWriter {
	return &blockingWriter{ctx: ctx, header: make(http.Header), limit: limit, blocked: make(chan struct{})}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		select {
		case <-w.blocked:
		default:
			close(w.blocked)
		}
		<-w.ctx.Done()
		return 0, w.ctx.Err()
	}
	w.written += len(p)
	return len(p), nil
}

// TestServeSlowClientBoundedAlloc drives the handler against a writer that
// jams after 4KB. The stream must suspend — bounded further allocation while
// jammed — and a disconnect must abort the cursor, counted in the metrics
// with only a sliver of the full search done.
func TestServeSlowClientBoundedAlloc(t *testing.T) {
	const n = 450 // 202,500 rows ≈ tens of MB serialized
	store := turbohom.New(fanTriples(n), &turbohom.Options{Workers: 2, StreamBuffer: 8})
	defer store.Close()
	requirePipelined(t, store, fanHubsQuery)
	srv := server.New(store, turbohom.ServerOptions{QueryTimeout: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(fanHubsQuery), nil).WithContext(ctx)
	w := newBlockingWriter(ctx, 4<<10)

	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(w, req)
		close(done)
	}()

	select {
	case <-w.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never filled the 4KB window")
	}

	// Jammed: whatever the pipeline still drains into the StreamBuffer is
	// bounded, so allocation while we sit here must be too. The full result
	// would serialize to tens of MB; demand well under one.
	base := totalAlloc()
	time.Sleep(300 * time.Millisecond)
	if grew := totalAlloc() - base; grew > 512<<10 {
		t.Errorf("allocated %d bytes while the client was jammed; stream is buffering, not suspending", grew)
	}

	cancel() // the client disconnects
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after disconnect")
	}

	m := srv.Metrics()
	if m.QueriesCancelled != 1 {
		t.Fatalf("queries_cancelled = %d, want 1 (metrics %+v)", m.QueriesCancelled, m)
	}
	// The abort must also have stopped the search itself: the cursor's
	// profile, folded into the metrics at Close, shows how many candidate
	// vertices were explored. A handful of flushed rows needs a tiny slice
	// of the n*n search.
	full := int64(n) * int64(n)
	if m.SearchNodes == 0 {
		t.Fatal("no search profile folded into metrics")
	}
	if m.SearchNodes > full/10 {
		t.Errorf("search explored %d nodes after early disconnect; full search is ~%d", m.SearchNodes, full)
	}
}

// TestDisconnectOverTCP is the same contract end to end over a real
// connection: a slow reader that takes a few rows with pauses and then
// stalls must leave allocation bounded — the socket buffers fill, the
// handler's Write blocks and the cursor suspends — and closing the
// connection mid-body must cancel the request context and abort the cursor.
func TestDisconnectOverTCP(t *testing.T) {
	const n = 450 // 202,500 rows ≈ 18 MB of JSON, far beyond the socket buffers
	store := turbohom.New(fanTriples(n), &turbohom.Options{Workers: 2, StreamBuffer: 8})
	defer store.Close()
	requirePipelined(t, store, fanHubsQuery)
	// The result cache is off: teeing rows into a prospective entry would
	// legitimately allocate up to the entry cap, and this test is about the
	// live stream.
	srv := server.New(store, turbohom.ServerOptions{QueryTimeout: -1, ResultCacheBytes: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(fanHubsQuery))
	if err != nil {
		t.Fatal(err)
	}
	// The JSON writer emits the head and then one row per line: read the
	// head and three rows, pausing after each.
	body := bufio.NewReader(resp.Body)
	for i := 0; i < 4; i++ {
		if _, err := body.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stall. Once the socket buffers are full, allocation must settle; a
	// stream that buffered instead of suspending would keep allocating until
	// the whole result sat in memory.
	prev := totalAlloc()
	for i := 0; ; i++ {
		time.Sleep(100 * time.Millisecond)
		cur := totalAlloc()
		grew := cur - prev
		prev = cur
		if grew < 256<<10 {
			break
		}
		if i == 50 {
			t.Fatalf("allocated %d bytes per 100ms after 5s of a stalled client; stream is buffering, not suspending", grew)
		}
	}

	resp.Body.Close() // disconnect mid-body

	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().QueriesCancelled != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("server never counted the disconnect: %+v", srv.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The stall must have suspended the search, not merely the writes: what
	// the socket buffers absorbed is a fraction of the n*n result.
	if m := srv.Metrics(); m.SearchNodes > int64(n)*int64(n)/2 {
		t.Errorf("search explored %d nodes before the disconnect; full search is ~%d", m.SearchNodes, n*n)
	}
}

// TestStreamDeliversAllRows sanity-checks the other side of the coin: a
// patient client gets every one of the n*n rows through the same machinery.
func TestStreamDeliversAllRows(t *testing.T) {
	const n = 60
	store := turbohom.New(fanTriples(n), &turbohom.Options{Workers: 2, StreamBuffer: 8})
	defer store.Close()
	requirePipelined(t, store, fanHubsQuery)
	srv := server.New(store, turbohom.ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(fanHubsQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// One row per line: count the binding lines instead of decoding 3,601
	// rows' worth of JSON.
	got := strings.Count(string(body), `{"a":`)
	if got != n*n+1 {
		t.Fatalf("streamed %d rows, want %d", got, n*n+1)
	}
	if tr := resp.Trailer.Get(server.TrailerError); tr != "" {
		t.Fatalf("unexpected error trailer %q", tr)
	}
	if m := srv.Metrics(); m.RowsStreamed != int64(n*n+1) || m.QueriesOK != 1 {
		t.Fatalf("metrics %+v", m)
	}
}
