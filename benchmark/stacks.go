package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	turbohom "repro"
	"repro/internal/cache"
	"repro/internal/server"
	"repro/internal/server/loadtest"
)

// stack is a ready system under test, driven only through the public
// surface: the turbohom package and, for serve_zipf, the HTTP endpoint.
type stack interface {
	// query runs the key-th text to completion and reports its row count
	// and how long the first row took to become available.
	query(ctx context.Context, key int) (rows int, firstRow time.Duration, err error)
	update(ctx context.Context, text string) error
	compact() error
	close() error
}

// rowSink keeps the compiler from discarding row reads.
var rowSink int

// libStack calls the store in process. With prepared set, the texts were
// prepared once and an op is Prepared.Select; otherwise every op is a fresh
// Store.Select of the text.
type libStack struct {
	store    *turbohom.Store
	texts    []string
	prepared []*turbohom.Prepared
}

func (s *libStack) prepareAll() error {
	s.prepared = make([]*turbohom.Prepared, len(s.texts))
	for i, t := range s.texts {
		p, err := s.store.Prepare(t)
		if err != nil {
			return fmt.Errorf("prepare text %d: %w", i, err)
		}
		s.prepared[i] = p
	}
	return nil
}

func (s *libStack) query(ctx context.Context, key int) (int, time.Duration, error) {
	t0 := time.Now()
	var rows *turbohom.Rows
	if s.prepared != nil {
		rows = s.prepared[key].Select(ctx)
	} else {
		var err error
		if rows, err = s.store.Select(ctx, s.texts[key]); err != nil {
			return 0, 0, err
		}
	}
	n := 0
	if rows.Next() {
		n = 1
		rowSink += len(rows.Row())
	}
	first := time.Since(t0)
	for rows.Next() {
		n++
		rowSink += len(rows.Row())
	}
	return n, first, rows.Close()
}

func (s *libStack) update(_ context.Context, text string) error {
	_, _, err := s.store.Update(text)
	return err
}

func (s *libStack) compact() error { return s.store.Compact() }
func (s *libStack) close() error   { return s.store.Close() }

// httpStack is the store behind server.New on a loopback listener in this
// process, reached through a keep-alive HTTP client.
type httpStack struct {
	store  *turbohom.Store
	srv    *server.Server
	base   string
	client *http.Client
	bodies []string // urlencoded form bodies, one per text
	stop   context.CancelFunc
	served chan error
}

const askReady = `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
ASK { ?X rdf:type ub:University }`

// startHTTP opens the durable store in dir, serves it with default
// ServerOptions, and returns once the listener has answered one ASK.
func startHTTP(dir string, bodies []string, clients int) (*httpStack, error) {
	store, err := turbohom.OpenDir(dir, nil)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &httpStack{
		store:  store,
		srv:    server.New(store, turbohom.ServerOptions{}),
		base:   "http://" + l.Addr().String(),
		bodies: bodies,
		stop:   cancel,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() { s.served <- s.srv.Serve(ctx, l) }()
	doc, err := loadtest.DoQuery(context.Background(), s.client, s.base, askReady, "")
	if err == nil && (doc.Boolean == nil || !*doc.Boolean) {
		err = fmt.Errorf("readiness ASK answered false")
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *httpStack) post(ctx context.Context, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/sparql", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return s.client.Do(req)
}

// query drains the JSON body with a row counter instead of a decoder: the
// writer starts every solution on its own line with "{", and a newline inside
// a term is escaped, so "\n{" occurs exactly once per row.
func (s *httpStack) query(ctx context.Context, key int) (int, time.Duration, error) {
	rows, first, _, _, err := s.timedQuery(ctx, key)
	return rows, first, err
}

// timedQuery also reports the body size and the cache disposition header,
// which the traced run reads.
func (s *httpStack) timedQuery(ctx context.Context, key int) (rows int, first time.Duration, bodyBytes int, disposition string, err error) {
	t0 := time.Now()
	resp, err := s.post(ctx, s.bodies[key])
	if err != nil {
		return 0, 0, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, 0, "", fmt.Errorf("query status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var buf [32 << 10]byte
	afterNewline := false
	for {
		n, rerr := resp.Body.Read(buf[:])
		if n > 0 && first == 0 {
			first = time.Since(t0)
		}
		bodyBytes += n
		for _, c := range buf[:n] {
			if afterNewline && c == '{' {
				rows++
			}
			afterNewline = c == '\n'
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rows, first, bodyBytes, "", rerr
		}
	}
	if msg := resp.Trailer.Get(server.TrailerError); msg != "" {
		return rows, first, bodyBytes, "", fmt.Errorf("stream ended in error: %s", msg)
	}
	return rows, first, bodyBytes, resp.Header.Get(server.HeaderCache), nil
}

func (s *httpStack) update(ctx context.Context, text string) error {
	_, _, err := loadtest.DoUpdate(ctx, s.client, s.base, text)
	return err
}

func (s *httpStack) compact() error { return s.store.Compact() }

// close drains the server, waits for Serve to return, and closes the store.
func (s *httpStack) close() error {
	s.stop()
	err := <-s.served
	s.client.CloseIdleConnections()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// health is the part of /healthz the benchmark reads: the result cache's
// own counters are exported nowhere else.
type health struct {
	ResultCache cache.Stats `json:"result_cache"`
}

func (s *httpStack) health(ctx context.Context) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// copyDir copies a store directory file by file while the store is open: what
// a process kill would leave behind (the OS cache keeps unsynced WAL writes).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
