// Package server implements the W3C SPARQL 1.1 Protocol over HTTP for a
// turbohom store: query via GET or both POST forms, update via POST, with
// content-negotiated JSON/XML results STREAMED row by row from the store's
// cursor to the chunked response body.
//
// The streaming path is the point. A response is never materialized: the
// handler pulls rows from a Rows cursor and writes them straight to the
// ResponseWriter, so per-connection server memory is bounded by the engine's
// Options.StreamBuffer, not by result size. Backpressure composes end to
// end — a client that stops reading fills its TCP window, which blocks the
// handler's Write, which stops Next, which suspends the cursor's region
// pipeline with at most StreamBuffer rows in flight. Closing the connection
// cancels the request context, which aborts the matcher's remaining search.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"iter"
	"mime"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	turbohom "repro"
	"repro/internal/cache"
	"repro/internal/sparql"
)

// Trailer names: announced before the body, set after it. A streaming
// response commits its 200 before the query finishes, so truncation and
// late failures travel in HTTP trailers.
const (
	// TrailerTruncated carries the row count of a response cut short by
	// ServerOptions.MaxRows. Absent when the result was complete.
	TrailerTruncated = "X-Turbohom-Truncated"
	// TrailerError carries the error that ended a stream after the status
	// line was already out (timeout, execution failure). Absent on success.
	TrailerError = "X-Turbohom-Error"
)

// HeaderCache reports how the result cache served a query response: "hit"
// (replayed from a cached entry, no matcher work), "miss" (executed live,
// possibly admitted for the next request), or "bypass" (cache disabled, or
// an ASK form). It is a response header, not a trailer: the disposition is
// known before the first body byte.
const HeaderCache = "X-Turbohom-Cache"

// Response headers of a successful update.
const (
	headerInserted = "X-Turbohom-Inserted"
	headerDeleted  = "X-Turbohom-Deleted"
)

// maxRequestBody caps POST bodies (queries and updates).
const maxRequestBody = 8 << 20

// flushEvery is the row cadence of explicit response flushes. The first row
// is always flushed — a client that wants to observe streaming (or pace its
// reads) sees it immediately — and afterwards every flushEvery rows, so
// chunk overhead stays small on bulk drains.
const flushEvery = 32

// Metrics are the server's monotonic counters, exported through /healthz
// and Server.Metrics. All fields are atomics; read them via Snapshot.
type Metrics struct {
	QueriesStarted   atomic.Int64 // query requests admitted (after negotiation)
	QueriesOK        atomic.Int64 // streamed to completion (truncation included)
	QueriesFailed    atomic.Int64 // parse failures, negotiation failures, execution errors
	QueriesCancelled atomic.Int64 // timeouts, client disconnects, shutdown cuts
	RowsStreamed     atomic.Int64 // solutions written to response bodies
	Truncated        atomic.Int64 // responses cut by MaxRows
	UpdatesOK        atomic.Int64
	UpdatesFailed    atomic.Int64
	TriplesInserted  atomic.Int64
	TriplesDeleted   atomic.Int64
	PreparedHits     atomic.Int64 // prepared-query cache hits
	PreparedMisses   atomic.Int64
	CacheHits        atomic.Int64 // result-cache hits (replayed responses)
	CacheMisses      atomic.Int64 // result-cache misses (live runs on the cacheable path)
	Regions          atomic.Int64 // matcher candidate regions visited, summed over queries
	SearchNodes      atomic.Int64 // matcher search nodes expanded, summed over queries
}

// MetricsSnapshot is a plain-value copy of Metrics, JSON-encodable.
type MetricsSnapshot struct {
	QueriesStarted   int64 `json:"queries_started"`
	QueriesOK        int64 `json:"queries_ok"`
	QueriesFailed    int64 `json:"queries_failed"`
	QueriesCancelled int64 `json:"queries_cancelled"`
	RowsStreamed     int64 `json:"rows_streamed"`
	Truncated        int64 `json:"truncated"`
	UpdatesOK        int64 `json:"updates_ok"`
	UpdatesFailed    int64 `json:"updates_failed"`
	TriplesInserted  int64 `json:"triples_inserted"`
	TriplesDeleted   int64 `json:"triples_deleted"`
	PreparedHits     int64 `json:"prepared_hits"`
	PreparedMisses   int64 `json:"prepared_misses"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	Regions          int64 `json:"regions"`
	SearchNodes      int64 `json:"search_nodes"`
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		QueriesStarted:   m.QueriesStarted.Load(),
		QueriesOK:        m.QueriesOK.Load(),
		QueriesFailed:    m.QueriesFailed.Load(),
		QueriesCancelled: m.QueriesCancelled.Load(),
		RowsStreamed:     m.RowsStreamed.Load(),
		Truncated:        m.Truncated.Load(),
		UpdatesOK:        m.UpdatesOK.Load(),
		UpdatesFailed:    m.UpdatesFailed.Load(),
		TriplesInserted:  m.TriplesInserted.Load(),
		TriplesDeleted:   m.TriplesDeleted.Load(),
		PreparedHits:     m.PreparedHits.Load(),
		PreparedMisses:   m.PreparedMisses.Load(),
		CacheHits:        m.CacheHits.Load(),
		CacheMisses:      m.CacheMisses.Load(),
		Regions:          m.Regions.Load(),
		SearchNodes:      m.SearchNodes.Load(),
	}
}

// Server is the SPARQL protocol endpoint over one Store. It is an
// http.Handler serving:
//
//	/sparql   the SPARQL 1.1 Protocol operation (query and update)
//	/healthz  liveness, store stats, memory and request counters (JSON)
//
// Create with New; serve with any http.Server, or Serve/ListenAndServe for
// the graceful-drain lifecycle.
type Server struct {
	store   *turbohom.Store
	opts    turbohom.ServerOptions
	cache   *preparedCache
	results *cache.Cache // snapshot-versioned result cache; nil = disabled
	mux     *http.ServeMux
	m       Metrics
}

// New builds a Server over store. opts zero value: 30s query timeout,
// unlimited rows, 128-entry prepared LRU, a 64 MiB result cache, 10s drain,
// updates allowed.
func New(store *turbohom.Store, opts turbohom.ServerOptions) *Server {
	s := &Server{
		store:   store,
		opts:    opts,
		cache:   newPreparedCache(opts.EffectivePreparedCache()),
		results: cache.New(opts.EffectiveResultCacheBytes()),
	}
	if s.results != nil {
		// Every committed batch feeds the cache's invalidation ring; the
		// callback runs under the store's writer lock, so epochs arrive in
		// order.
		store.OnCommit(s.results.Advance)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.handleSPARQL)
	mux.HandleFunc("/healthz", s.handleHealth)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() MetricsSnapshot { return s.m.snapshot() }

// Serve accepts connections on l until ctx is cancelled, then runs the
// drain protocol: the listener closes immediately, in-flight requests —
// streaming cursors included — get ServerOptions.DrainTimeout to finish,
// and whatever remains is severed, which cancels those requests' contexts
// and thereby closes their cursors. It returns nil after a clean drain and
// the shutdown error (context.DeadlineExceeded) after a forced cut.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		done <- drainServer(hs, s.opts.EffectiveDrainTimeout())
	}()
	err := hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return <-done
	}
	return err
}

// ListenAndServe is Serve on a fresh TCP listener bound to addr.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// drainServer runs graceful shutdown with a wall-clock budget. It takes no
// caller context deliberately: draining starts precisely when the serve
// context is already cancelled, so the budget needs a fresh one.
func drainServer(hs *http.Server, budget time.Duration) error {
	sctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close() // budget exhausted: sever the stragglers
		return err
	}
	return nil
}

// httpError writes a plain-text error response — the protocol's failure
// shape for everything that goes wrong before the first result byte.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	if msg != "" {
		io.WriteString(w, msg+"\n") //nolint:errcheck // error body is best-effort
	}
}

// handleSPARQL dispatches the protocol operation: query via GET ?query= or
// both POST forms (urlencoded query=, application/sparql-query body);
// update via POST only (urlencoded update=, application/sparql-update
// body).
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		qv := r.URL.Query()
		if qv.Has("update") {
			httpError(w, http.StatusBadRequest, "update is only accepted via POST")
			return
		}
		query := qv.Get("query")
		if query == "" {
			httpError(w, http.StatusBadRequest, "missing query parameter")
			return
		}
		s.handleQuery(w, r, query)
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		ctHeader := r.Header.Get("Content-Type")
		mt, _, err := mime.ParseMediaType(ctHeader)
		if err != nil && ctHeader != "" {
			httpError(w, http.StatusUnsupportedMediaType, "unparseable Content-Type")
			return
		}
		switch mt {
		case "application/x-www-form-urlencoded", "":
			if err := r.ParseForm(); err != nil {
				httpError(w, bodyErrStatus(err), "bad form body: "+err.Error())
				return
			}
			query, update := r.PostForm.Get("query"), r.PostForm.Get("update")
			switch {
			case query != "" && update != "":
				httpError(w, http.StatusBadRequest, "exactly one of query= and update= is allowed")
			case query != "":
				s.handleQuery(w, r, query)
			case update != "":
				s.handleUpdate(w, update)
			default:
				httpError(w, http.StatusBadRequest, "missing query or update parameter")
			}
		case "application/sparql-query":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				httpError(w, bodyErrStatus(err), "reading body: "+err.Error())
				return
			}
			s.handleQuery(w, r, string(body))
		case "application/sparql-update":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				httpError(w, bodyErrStatus(err), "reading body: "+err.Error())
				return
			}
			s.handleUpdate(w, string(body))
		default:
			httpError(w, http.StatusUnsupportedMediaType,
				"unsupported Content-Type "+mt+" (want application/x-www-form-urlencoded, application/sparql-query, or application/sparql-update)")
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

// bodyErrStatus distinguishes an oversized body (413) from a malformed one
// (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// prepare resolves a query string through the prepared-query LRU.
func (s *Server) prepare(query string) (*turbohom.Prepared, error) {
	if p, ok := s.cache.get(query); ok {
		s.m.PreparedHits.Add(1)
		return p, nil
	}
	p, err := s.store.Prepare(query)
	if err != nil {
		return nil, err
	}
	s.m.PreparedMisses.Add(1)
	s.cache.put(query, p)
	return p, nil
}

// handleQuery executes a SELECT or ASK and streams the result document.
//
// SELECT responses route through the result cache when it is enabled: a hit
// replays the materialized rows through the same streaming writer — same
// bytes, same flush cadence, same trailer semantics — without touching the
// matcher; a miss runs live and, when it was the flight's leader (or a
// follower whose leader produced nothing), offers the collected rows back to
// the cache. Only clean, complete, within-budget result sets are admitted:
// an error, a cancellation, a MaxRows truncation, or a result set over the
// cache's per-entry caps streams normally but caches nothing.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, query string) {
	ct, acceptOK := negotiate(r.Header.Get("Accept"))
	if !acceptOK {
		s.m.QueriesFailed.Add(1)
		httpError(w, http.StatusNotAcceptable,
			"no acceptable result format: supported are "+ctJSON+" and "+ctXML)
		return
	}
	p, err := s.prepare(query)
	if err != nil {
		s.m.QueriesFailed.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.m.QueriesStarted.Add(1)

	ctx := r.Context()
	if d := s.opts.EffectiveQueryTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// Consult the result cache. ASK bypasses it: the answer is one boolean
	// computed from at most one row of search — caching would save nothing.
	disposition := "bypass"
	var (
		key    string
		fl     *cache.Flight
		leader bool
	)
	if s.results != nil && !p.Ask() {
		key = p.CacheKey()
		var e *cache.Entry
		e, fl, leader = s.results.GetOrStart(key, s.store.Epoch())
		if e == nil && fl != nil && !leader {
			// Follower: wait for the in-flight leader instead of running the
			// same search concurrently. A nil entry (failed or inadmissible
			// leader, or our context died) drops us to a solo live run.
			e = fl.Wait(ctx)
			fl = nil
		}
		if e != nil {
			s.m.CacheHits.Add(1)
			w.Header().Set(HeaderCache, "hit")
			s.writeDocument(w, ct, e.Vars, func(yield func([]turbohom.Term, error) bool) {
				for _, row := range e.Rows {
					if err := ctx.Err(); err != nil {
						yield(nil, err)
						return
					}
					if !yield(row, nil) {
						return
					}
				}
			})
			return
		}
		disposition = "miss"
		s.m.CacheMisses.Add(1)
	}
	w.Header().Set(HeaderCache, disposition)

	// A leader must resolve its flight exactly once, whatever path exits
	// this handler; admit stays nil unless the run completed clean.
	var admit *cache.Entry
	if leader {
		defer func() { s.results.Finish(key, fl, admit) }()
	}

	// The cursor is profiled so the server can account matcher effort —
	// and so tests can prove that a disconnected client really aborted the
	// remaining search. The profile is valid only after Close, hence the
	// deferred metric fold.
	var prof turbohom.ProfileResult
	rows := p.SelectProfiled(ctx, &prof)
	defer func() {
		rows.Close()
		s.m.Regions.Add(int64(prof.Regions))
		s.m.SearchNodes.Add(int64(prof.SearchNodes))
	}()

	// Pull the first row before committing a status line: an execution
	// error with zero rows out still gets a clean HTTP error, not a
	// severed 200.
	first := rows.Next()
	if !first {
		if err := rows.Err(); err != nil {
			s.queryError(w, err)
			return
		}
	}

	if p.Ask() {
		w.Header().Set("Content-Type", ct)
		if err := newResultWriter(ct, w).writeBoolean(first); err != nil {
			s.m.QueriesCancelled.Add(1)
			return
		}
		s.m.QueriesOK.Add(1)
		return
	}

	// On the cacheable path, tee the streamed rows into a prospective cache
	// entry. Cursor rows are caller-owned (the projector allocates a fresh
	// slice per row), so retaining them needs no copy. Blowing either
	// admission cap abandons collection but not the response.
	collecting := disposition == "miss"
	var (
		collected [][]turbohom.Term
		colBytes  int64
	)
	maxBytes, maxRows := s.results.Limits()
	live := func(yield func([]turbohom.Term, error) bool) {
		for next := first; next; next = rows.Next() {
			if err := ctx.Err(); err != nil {
				// The request context died (disconnect, timeout) and the
				// checkpoint saw it before the cursor or a Write did.
				yield(nil, err)
				return
			}
			row := rows.Row()
			if collecting {
				colBytes += cache.RowBytes(row)
				if colBytes > maxBytes || len(collected) >= maxRows {
					collecting, collected = false, nil
				} else {
					collected = append(collected, row)
				}
			}
			if !yield(row, nil) {
				return
			}
		}
		if err := rows.Err(); err != nil {
			yield(nil, err)
		}
	}
	if s.writeDocument(w, ct, p.Vars(), live) && collecting {
		// Clean and complete: the collected rows are exactly the result set
		// at the cursor's pinned snapshot.
		e := cache.NewEntry(p.Vars(), collected, rows.Footprint(), rows.Epoch())
		if leader {
			admit = e
		} else {
			s.results.Put(key, e)
		}
	}
}

// writeDocument streams one SELECT result document: the head, then every
// row of src, flushed on the first row and every flushEvery rows after,
// cut at ServerOptions.MaxRows, and closed well-formed with what ended it
// in the trailers. src checks the request context before each row and
// yields a terminating failure or cancellation as its final pair with a
// nil row. A live run and a cache replay both stream through here, so
// their bytes, flush cadence and trailers are identical. It reports
// whether every row of src was written: no failure, cancellation,
// truncation or row write error.
func (s *Server) writeDocument(w http.ResponseWriter, ct string, vars []string, src iter.Seq2[[]turbohom.Term, error]) bool {
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Trailer", TrailerTruncated+", "+TrailerError)
	flusher, _ := w.(http.Flusher)
	wr := newResultWriter(ct, w)
	if err := wr.writeHead(vars); err != nil {
		s.m.QueriesCancelled.Add(1)
		return false
	}

	n := 0
	truncated := false
	var srcErr error
	for row, err := range src {
		if srcErr = err; err != nil {
			break
		}
		if err := wr.writeRow(row); err != nil {
			// The client went away mid-stream; the caller's deferred Close
			// aborts the remaining search.
			s.m.RowsStreamed.Add(int64(n))
			s.m.QueriesCancelled.Add(1)
			return false
		}
		n++
		if flusher != nil && (n == 1 || n%flushEvery == 0) {
			flusher.Flush()
		}
		if s.opts.MaxRows > 0 && n >= s.opts.MaxRows {
			truncated = true
			break
		}
	}
	s.m.RowsStreamed.Add(int64(n))

	switch {
	case srcErr != nil:
		s.m.QueriesCancelled.Add(1)
		w.Header().Set(TrailerError, srcErr.Error())
	case truncated:
		s.m.QueriesOK.Add(1)
		s.m.Truncated.Add(1)
		w.Header().Set(TrailerTruncated, strconv.Itoa(n))
	default:
		s.m.QueriesOK.Add(1)
	}
	if wr.finish() == nil && flusher != nil {
		flusher.Flush()
	}
	return srcErr == nil && !truncated
}

// queryError maps a query failure with zero bytes written to an HTTP
// status.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.m.QueriesCancelled.Add(1)
		httpError(w, http.StatusServiceUnavailable, "query timed out")
	case errors.Is(err, context.Canceled):
		s.m.QueriesCancelled.Add(1)
		httpError(w, http.StatusServiceUnavailable, "query cancelled")
	default:
		s.m.QueriesFailed.Add(1)
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleUpdate applies a SPARQL UPDATE request (INSERT DATA / DELETE DATA).
func (s *Server) handleUpdate(w http.ResponseWriter, update string) {
	if s.opts.ReadOnly {
		s.m.UpdatesFailed.Add(1)
		httpError(w, http.StatusForbidden, "server is read-only")
		return
	}
	ins, del, err := s.store.Update(update)
	if err != nil {
		s.m.UpdatesFailed.Add(1)
		var pe *sparql.ParseError
		if errors.As(err, &pe) {
			httpError(w, http.StatusBadRequest, err.Error())
		} else {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.m.UpdatesOK.Add(1)
	s.m.TriplesInserted.Add(int64(ins))
	s.m.TriplesDeleted.Add(int64(del))
	w.Header().Set(headerInserted, strconv.Itoa(ins))
	w.Header().Set(headerDeleted, strconv.Itoa(del))
	w.WriteHeader(http.StatusNoContent)
}

// healthResponse is the /healthz JSON body.
type healthResponse struct {
	Status         string          `json:"status"`
	Triples        int             `json:"triples"`
	Vertices       int             `json:"vertices"`
	Edges          int             `json:"edges"`
	Transformation string          `json:"transformation"`
	HeapAlloc      uint64          `json:"heap_alloc"`
	HeapSys        uint64          `json:"heap_sys"`
	NumGoroutine   int             `json:"num_goroutine"`
	PreparedCached int             `json:"prepared_cached"`
	ResultCache    cache.Stats     `json:"result_cache"`
	Metrics        MetricsSnapshot `json:"metrics"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.store.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthResponse{ //nolint:errcheck // best-effort health body
		Status:         "ok",
		Triples:        st.Triples,
		Vertices:       st.Vertices,
		Edges:          st.Edges,
		Transformation: st.Transformation,
		HeapAlloc:      ms.HeapAlloc,
		HeapSys:        ms.HeapSys,
		NumGoroutine:   runtime.NumGoroutine(),
		PreparedCached: s.cache.len(),
		ResultCache:    s.results.Stats(),
		Metrics:        s.m.snapshot(),
	})
}
