package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dht-sampling/randompeer/internal/wire"
)

// TestOversizedControlRequestGets413 pins the control plane's edge: a
// body beyond maxControlBytes is refused with 413 before it is decoded.
func TestOversizedControlRequestGets413(t *testing.T) {
	d := newDaemon(wire.NewTransport())
	defer d.tr.Close()
	srv := httptest.NewServer(d.mux())
	defer srv.Close()
	body := `{"backend":"chord","points":[` + strings.Repeat("1,", maxControlBytes/2) + `1]}`
	resp, err := http.Post(srv.URL+"/v1/provision", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized provision: status %d, want 413", resp.StatusCode)
	}
}
