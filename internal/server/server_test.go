package server_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	turbohom "repro"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/server/loadtest"
)

// testTriples is a small store exercising every term shape the wire
// formats must round-trip: IRIs, plain / typed / language-tagged literals
// (with characters that need escaping in both JSON and XML), and a blank
// node.
func testTriples() []turbohom.Triple {
	p := rdf.NewIRI("http://x/p")
	return []turbohom.Triple{
		{S: rdf.NewIRI("http://x/s1"), P: p, O: rdf.NewLiteral(`va "quoted" <&>` + "\nline2")},
		{S: rdf.NewIRI("http://x/s2"), P: p, O: rdf.NewTypedLiteral("3", rdf.XSDInteger)},
		{S: rdf.NewIRI("http://x/s3"), P: p, O: rdf.NewLangLiteral("bonjour", "fr")},
		{S: rdf.NewIRI("http://x/s4"), P: p, O: rdf.NewIRI("http://x/o")},
		{S: rdf.NewBlank("b0"), P: p, O: rdf.NewLiteral("from-blank")},
		{S: rdf.NewIRI("http://x/s1"), P: rdf.NewIRI("http://x/opt"), O: rdf.NewLiteral("extra")},
	}
}

const testQuery = `SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }`

func newTestServer(t *testing.T, opts turbohom.ServerOptions) (*server.Server, *httptest.Server, *turbohom.Store) {
	t.Helper()
	store := turbohom.New(testTriples(), &turbohom.Options{Workers: 2})
	srv := server.New(store, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { store.Close() })
	return srv, ts, store
}

func get(t *testing.T, rawURL, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestContentNegotiation(t *testing.T) {
	_, ts, _ := newTestServer(t, turbohom.ServerOptions{})
	queryURL := ts.URL + "/sparql?query=" + url.QueryEscape(testQuery)

	for _, tc := range []struct {
		accept string
		status int
		ct     string // expected response Content-Type (ignoring params)
	}{
		{"", 200, "application/sparql-results+json"},
		{"application/sparql-results+json", 200, "application/sparql-results+json"},
		{"application/sparql-results+xml", 200, "application/sparql-results+xml"},
		{"application/json", 200, "application/sparql-results+json"},
		{"application/xml", 200, "application/sparql-results+xml"},
		{"text/xml", 200, "application/sparql-results+xml"},
		{"*/*", 200, "application/sparql-results+json"},
		{"application/*", 200, "application/sparql-results+json"},
		// q-values order the candidates.
		{"application/sparql-results+json;q=0.1, application/sparql-results+xml;q=0.9", 200, "application/sparql-results+xml"},
		{"application/sparql-results+xml;q=0.2, */*;q=0.1", 200, "application/sparql-results+xml"},
		// Equal q: the server prefers JSON.
		{"application/sparql-results+xml, application/sparql-results+json", 200, "application/sparql-results+json"},
		// Unsupported type falls back to a supported wildcard.
		{"text/html;q=0.9, */*;q=0.1", 200, "application/sparql-results+json"},
		// q=0 refuses a type.
		{"application/sparql-results+json;q=0", 406, ""},
		// Nothing supported.
		{"text/csv", 406, ""},
		{"text/html, image/png", 406, ""},
		// A malformed range never matches; a valid one alongside it does.
		{"garbage;;;=, application/sparql-results+xml", 200, "application/sparql-results+xml"},
		{"garbage;;;=", 406, ""},
	} {
		resp := get(t, queryURL, tc.accept)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("Accept=%q: status %d, want %d (body %q)", tc.accept, resp.StatusCode, tc.status, body)
			continue
		}
		if tc.status == 406 {
			if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
				t.Errorf("Accept=%q: 406 Content-Type %q, want text/plain", tc.accept, got)
			}
			if len(body) == 0 {
				t.Errorf("Accept=%q: 406 with empty body, want the supported formats listed", tc.accept)
			}
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != tc.ct {
			t.Errorf("Accept=%q: Content-Type %q, want %q", tc.accept, got, tc.ct)
			continue
		}
		if doc, err := loadtest.Decode(tc.ct, strings.NewReader(string(body))); err != nil {
			t.Errorf("Accept=%q: decoding response: %v", tc.accept, err)
		} else if len(doc.Rows) != 5 {
			t.Errorf("Accept=%q: %d rows, want 5", tc.accept, len(doc.Rows))
		}
	}
}

func TestMalformedQuery(t *testing.T) {
	_, ts, _ := newTestServer(t, turbohom.ServerOptions{})
	for _, q := range []string{"SELEC ?s WHERE { }", "SELECT ?s WHERE { ?s ?p }", "ASK { ?s ?p ?o } LIMIT 2"} {
		resp := get(t, ts.URL+"/sparql?query="+url.QueryEscape(q), "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("query %q: Content-Type %q, want text/plain", q, ct)
		}
		if len(body) == 0 {
			t.Errorf("query %q: empty error body", q)
		}
	}

	// Missing parameter and update-via-GET are protocol violations too.
	for _, u := range []string{ts.URL + "/sparql", ts.URL + "/sparql?update=" + url.QueryEscape("INSERT DATA { <http://x/a> <http://x/p> \"v\" }")} {
		resp := get(t, u, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", u, resp.StatusCode)
		}
	}
}

func TestMethodsAndMediaTypes(t *testing.T) {
	_, ts, _ := newTestServer(t, turbohom.ServerOptions{})

	// Unsupported method.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/sparql", strings.NewReader("query="+url.QueryEscape(testQuery)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("PUT: Allow %q, want GET, POST", allow)
	}

	// Unsupported POST media type.
	resp, err = http.Post(ts.URL+"/sparql", "text/turtle", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("POST text/turtle: status %d, want 415", resp.StatusCode)
	}

	// Both direct-body POST forms.
	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := loadtest.Decode("application/sparql-results+json", resp.Body)
	resp.Body.Close()
	if err != nil || len(doc.Rows) != 5 {
		t.Fatalf("POST application/sparql-query: rows %v err %v", doc, err)
	}
	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-update",
		strings.NewReader(`INSERT DATA { <http://x/s9> <http://x/p> "nine" }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || resp.Header.Get("X-Turbohom-Inserted") != "1" {
		t.Fatalf("POST application/sparql-update: status %d inserted %q", resp.StatusCode, resp.Header.Get("X-Turbohom-Inserted"))
	}

	// A form carrying both query= and update= is ambiguous.
	resp, err = http.PostForm(ts.URL+"/sparql", url.Values{"query": {testQuery}, "update": {`INSERT DATA { <http://x/a> <http://x/p> "v" }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST query+update: status %d, want 400", resp.StatusCode)
	}
}

func TestAsk(t *testing.T) {
	_, ts, _ := newTestServer(t, turbohom.ServerOptions{})
	for _, tc := range []struct {
		query  string
		accept string
		want   bool
	}{
		{`ASK { ?s <http://x/p> ?o . }`, "application/sparql-results+json", true},
		{`ASK { ?s <http://x/nope> ?o . }`, "application/sparql-results+json", false},
		{`ASK { ?s <http://x/p> ?o . }`, "application/sparql-results+xml", true},
		{`ASK { ?s <http://x/nope> ?o . }`, "application/sparql-results+xml", false},
	} {
		resp := get(t, ts.URL+"/sparql?query="+url.QueryEscape(tc.query), tc.accept)
		doc, err := loadtest.Decode(tc.accept, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("ASK %q via %s: %v", tc.query, tc.accept, err)
		}
		if doc.Boolean == nil || *doc.Boolean != tc.want {
			t.Errorf("ASK %q via %s: boolean %v, want %v", tc.query, tc.accept, doc.Boolean, tc.want)
		}
		if len(doc.Rows) != 0 {
			t.Errorf("ASK %q: carried %d rows", tc.query, len(doc.Rows))
		}
	}
}

func TestUpdateAndReadOnly(t *testing.T) {
	_, ts, store := newTestServer(t, turbohom.ServerOptions{})
	before := store.Stats().Triples

	ins, del, err := loadtest.DoUpdate(context.Background(), http.DefaultClient, ts.URL,
		`INSERT DATA { <http://x/u1> <http://x/p> "one" . <http://x/u2> <http://x/p> "two" } ;
		 DELETE DATA { <http://x/s4> <http://x/p> <http://x/o> }`)
	if err != nil {
		t.Fatal(err)
	}
	if ins != 2 || del != 1 {
		t.Fatalf("update counts (%d, %d), want (2, 1)", ins, del)
	}
	if got := store.Stats().Triples; got != before+1 {
		t.Fatalf("store has %d triples, want %d", got, before+1)
	}

	// Parse errors are the client's fault.
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {`DELETE WHERE { ?s ?p ?o }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pattern update: status %d, want 400", resp.StatusCode)
	}

	// Read-only servers refuse updates but keep answering queries.
	_, tsRO, _ := newTestServer(t, turbohom.ServerOptions{ReadOnly: true})
	resp, err = http.PostForm(tsRO.URL+"/sparql", url.Values{"update": {`INSERT DATA { <http://x/a> <http://x/p> "v" }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only update: status %d, want 403", resp.StatusCode)
	}
	if _, err := loadtest.DoQuery(context.Background(), http.DefaultClient, tsRO.URL, testQuery, ""); err != nil {
		t.Fatalf("read-only query: %v", err)
	}
}

func TestRowTruncationTrailer(t *testing.T) {
	_, ts, _ := newTestServer(t, turbohom.ServerOptions{MaxRows: 2})
	// A truncated result set is never admitted to the result cache, so the
	// repeat runs live again — a cache replay never needs to truncate — and
	// returns the same two rows under the same trailer.
	var first *loadtest.Document
	for i := 0; i < 2; i++ {
		resp := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery), "")
		body, err := io.ReadAll(resp.Body) // to EOF, so trailers arrive
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := loadtest.Decode("application/sparql-results+json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if len(doc.Rows) != 2 {
			t.Fatalf("request %d: body carries %d rows, want 2", i, len(doc.Rows))
		}
		if got := resp.Trailer.Get(server.TrailerTruncated); got != "2" {
			t.Fatalf("request %d: trailer %s = %q, want \"2\"", i, server.TrailerTruncated, got)
		}
		if got := resp.Header.Get(server.HeaderCache); got != "miss" {
			t.Fatalf("request %d: %s = %q, want \"miss\"", i, server.HeaderCache, got)
		}
		if first == nil {
			first = doc
		} else if !reflect.DeepEqual(doc.Rows, first.Rows) {
			t.Fatalf("repeated truncated request rows %v, want %v", doc.Rows, first.Rows)
		}
	}

	// An untruncated response must not carry the trailer.
	resp2 := get(t, ts.URL+"/sparql?query="+url.QueryEscape(`SELECT ?o WHERE { <http://x/s2> <http://x/p> ?o . }`), "")
	defer resp2.Body.Close()
	io.ReadAll(resp2.Body) //nolint:errcheck
	if got := resp2.Trailer.Get(server.TrailerTruncated); got != "" {
		t.Fatalf("untruncated response carries trailer %q", got)
	}
}

func TestRoundTripTerms(t *testing.T) {
	_, ts, store := newTestServer(t, turbohom.ServerOptions{})
	// OPTIONAL produces an unbound position for every subject but s1.
	q := `SELECT ?s ?o ?e WHERE { ?s <http://x/p> ?o . OPTIONAL { ?s <http://x/opt> ?e . } }`
	p, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]turbohom.Term
	rows := p.Select(context.Background())
	for rows.Next() {
		want = append(want, append([]turbohom.Term(nil), rows.Row()...))
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	for _, accept := range []string{"application/sparql-results+json", "application/sparql-results+xml"} {
		doc, err := loadtest.DoQuery(context.Background(), http.DefaultClient, ts.URL, q, accept)
		if err != nil {
			t.Fatalf("%s: %v", accept, err)
		}
		assertRowsEqual(t, accept, doc, p.Vars(), want)
	}
}

// assertRowsEqual compares a decoded wire document against an in-process
// drain, byte for byte (Term is a string; == is byte equality).
func assertRowsEqual(t *testing.T, label string, doc *loadtest.Document, vars []string, want [][]turbohom.Term) {
	t.Helper()
	if len(doc.Vars) != len(vars) {
		t.Fatalf("%s: vars %v, want %v", label, doc.Vars, vars)
	}
	for i, v := range vars {
		if doc.Vars[i] != v {
			t.Fatalf("%s: vars %v, want %v", label, doc.Vars, vars)
		}
	}
	if len(doc.Rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(doc.Rows), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if doc.Rows[i][j] != want[i][j] {
				t.Fatalf("%s: row %d col %d = %q, want %q", label, i, j, doc.Rows[i][j], want[i][j])
			}
		}
	}
}

func TestPreparedCacheLRU(t *testing.T) {
	srv, ts, _ := newTestServer(t, turbohom.ServerOptions{PreparedCache: 2})
	run := func(q string) {
		t.Helper()
		if _, err := loadtest.DoQuery(context.Background(), http.DefaultClient, ts.URL, q, ""); err != nil {
			t.Fatal(err)
		}
	}
	qA := `SELECT ?s WHERE { ?s <http://x/p> ?o . }`
	qB := `SELECT ?o WHERE { ?s <http://x/p> ?o . }`
	qC := `SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }`

	run(qA)
	run(qA) // hit
	m := srv.Metrics()
	if m.PreparedHits != 1 || m.PreparedMisses != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", m.PreparedHits, m.PreparedMisses)
	}
	run(qB)
	run(qC) // evicts qA (capacity 2, LRU)
	run(qA) // miss again
	m = srv.Metrics()
	if m.PreparedHits != 1 || m.PreparedMisses != 4 {
		t.Fatalf("after eviction: hits=%d misses=%d, want 1/4", m.PreparedHits, m.PreparedMisses)
	}
	run(qC) // still resident
	if m = srv.Metrics(); m.PreparedHits != 2 {
		t.Fatalf("qC should have been cached: hits=%d", m.PreparedHits)
	}
}

func TestQueryTimeout(t *testing.T) {
	_, ts, _ := newTestServer(t, turbohom.ServerOptions{QueryTimeout: time.Nanosecond})
	resp := get(t, ts.URL+"/sparql?query="+url.QueryEscape(testQuery), "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %q), want 503", resp.StatusCode, body)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	store := turbohom.New(fanTriples(120), &turbohom.Options{Workers: 2, StreamBuffer: 8})
	defer store.Close()
	requirePipelined(t, store, fanHubsQuery)
	srv := server.New(store, turbohom.ServerOptions{QueryTimeout: -1, DrainTimeout: 500 * time.Millisecond})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	base := "http://" + l.Addr().String()

	// Open a stream and read just the head, leaving the request in flight.
	resp := get(t, base+"/sparql?query="+url.QueryEscape(fanHubsQuery), "")
	defer resp.Body.Close()
	buf := make([]byte, 64)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}

	// Cancel the serve context: shutdown must cut the straggler within the
	// drain budget and return.
	cancel()
	select {
	case err := <-served:
		// A forced cut reports the shutdown error; a clean drain nil. Both
		// mean every handler exited.
		t.Logf("Serve returned: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel + drain budget")
	}
	if m := srv.Metrics(); m.QueriesStarted != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}
