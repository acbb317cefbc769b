package wire_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	_ "github.com/dht-sampling/randompeer/internal/chord"    // registers chord's RPC payloads
	_ "github.com/dht-sampling/randompeer/internal/kademlia" // registers kademlia's RPC payloads
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// fuzzNode is the node the fuzzed endpoint hosts.
const fuzzNode = 7

// FuzzRPCHandler feeds arbitrary request bodies to the RPC endpoint,
// seeded with one valid envelope per registered message type. The
// endpoint must never panic, and must answer either 200 with an
// envelope that decodes — a registered payload or an error — or a 4xx.
func FuzzRPCHandler(f *testing.F) {
	types := wire.RegisteredTypes()
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		zero := reflect.New(types[name]).Elem()
		if zero.Kind() == reflect.Pointer {
			zero = reflect.New(zero.Type().Elem())
		}
		body, err := json.Marshal(map[string]any{"from": 1, "to": fuzzNode, "type": name, "body": zero.Interface()})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"from":1,"to":99,"type":"chord.pingReq","body":{}}`))
	f.Add([]byte(`{"to":7,"type":"no.such","body":null,"trace":3}`))
	f.Add([]byte(`not json`))

	// The hosted node echoes every request, so any payload that decodes
	// is encoded back into a reply.
	tr := wire.NewTransport()
	f.Cleanup(func() { tr.Close() })
	if err := tr.Register(fuzzNode, func(_ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		return msg, nil
	}); err != nil {
		f.Fatal(err)
	}
	h := tr.RPCHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, wire.RPCPath, bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d; want 200 or a 4xx", rec.Code)
		}
		var reply struct {
			Type string
			Body json.RawMessage
			Err  *struct{ Kind, Msg string }
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("200 with an undecodable envelope: %v", err)
		}
		if reply.Err != nil {
			return
		}
		typ, ok := types[reply.Type]
		if !ok {
			t.Fatalf("200 reply of unregistered type %q", reply.Type)
		}
		dst := reflect.New(typ)
		if err := json.Unmarshal(reply.Body, dst.Interface()); err != nil {
			t.Fatalf("200 reply body does not decode as %q: %v", reply.Type, err)
		}
	})
}
