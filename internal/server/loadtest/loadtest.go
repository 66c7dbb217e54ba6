package loadtest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// DoQuery runs one SPARQL protocol query (POST, urlencoded form) against
// baseURL's /sparql endpoint and decodes the complete result document.
// accept may be empty for the server default (JSON).
func DoQuery(ctx context.Context, client *http.Client, baseURL, query, accept string) (*Document, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/sparql",
		strings.NewReader(url.Values{"query": {query}}.Encode()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("loadtest: query status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	ct := resp.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	doc, err := Decode(ct, resp.Body)
	if err != nil {
		return nil, err
	}
	// Drain to EOF so the client parses the HTTP trailers.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return nil, err
	}
	if tr := resp.Trailer.Get("X-Turbohom-Error"); tr != "" {
		return nil, fmt.Errorf("loadtest: stream ended in error: %s", tr)
	}
	return doc, nil
}

// DoUpdate runs one SPARQL protocol update (POST, urlencoded form) and
// reports the server's inserted/deleted counts.
func DoUpdate(ctx context.Context, client *http.Client, baseURL, update string) (inserted, deleted int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/sparql",
		strings.NewReader(url.Values{"update": {update}}.Encode()))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, 0, fmt.Errorf("loadtest: update status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Sscanf(resp.Header.Get("X-Turbohom-Inserted"), "%d", &inserted) //nolint:errcheck // absent header reads as 0
	fmt.Sscanf(resp.Header.Get("X-Turbohom-Deleted"), "%d", &deleted)   //nolint:errcheck
	return inserted, deleted, nil
}
