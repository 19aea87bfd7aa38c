package admin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// bigPolicy builds an n-rule document shaped like a deployment: distinct
// endpoint rules across two priority tiers, a sprinkle of windowed denies
// and one shared server set.
func bigPolicy(n int) string {
	var b strings.Builder
	b.WriteString("pdp edge priority 10\n")
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(&b, "allow proto tcp from host h%d to host s%d\n", i, i%40)
	}
	b.WriteString("pdp campus priority 50\n")
	for i := 0; i < n/2; i++ {
		if i%7 == 0 {
			fmt.Fprintf(&b, "deny from host h%d to host vault between 22:00-06:00\n", i)
			continue
		}
		fmt.Fprintf(&b, "allow from user u%d to host s%d\n", i, i%40)
	}
	return b.String()
}

func newBenchSystem(tb testing.TB) (*dfi.System, http.Handler) {
	tb.Helper()
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, b := bufpipe.New()
		ctl := controller.New(controller.Config{})
		go func() { _ = ctl.Serve(b) }()
		return a, nil
	}))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	return sys, Handler(sys)
}

// serveJSON sends one JSON request straight into the handler and returns
// the status and body.
func serveJSON(h http.Handler, method, path string, v any) (int, []byte) {
	body, _ := json.Marshal(v)
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// BenchmarkPolicyPut1Line measures a one-line PUT /v1/policy of a
// 1000-rule document through the admin handler: each iteration alternates
// between the document and the document with one allow line dropped, so
// every PUT applies a one-rule delta and annotates the response. The line
// is line 5, so every statement below it moves.
func BenchmarkPolicyPut1Line(b *testing.B) {
	benchPut1Line(b, "allow proto tcp from host h3 to host s3\n")
}

// BenchmarkPolicyPut1LineAtEnd is BenchmarkPolicyPut1Line with the edit
// four lines from the end, where the repository benchmark edits its probe
// lines: three statements move.
func BenchmarkPolicyPut1LineAtEnd(b *testing.B) {
	benchPut1Line(b, "allow from user u496 to host s16\n")
}

func benchPut1Line(b *testing.B, line string) {
	_, h := newBenchSystem(b)
	full := bigPolicy(1000)
	edited := strings.Replace(full, line, "", 1)
	if edited == full {
		b.Fatalf("%q is not in the document", line)
	}
	docs := [2]PolicyDocJSON{{Source: edited}, {Source: full}}
	if code, body := serveJSON(h, http.MethodPut, "/v1/policy", docs[1]); code != http.StatusOK {
		b.Fatalf("initial PUT = %d: %s", code, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, body := serveJSON(h, http.MethodPut, "/v1/policy", docs[i%2]); code != http.StatusOK {
			b.Fatalf("PUT = %d: %s", code, body)
		}
	}
}

// BenchmarkQuarantineInstantiateRetract measures one quarantine operation
// on the same 1000-rule document with the repository benchmark's
// quarantine template: iterations alternate between instantiating the
// template for a host and retracting it, each one apply of two deny rules
// that outrank every rule of the document.
func BenchmarkQuarantineInstantiateRetract(b *testing.B) {
	sys, _ := newBenchSystem(b)
	eng := sys.PolicyEngine()
	src := "pdp quarantine priority 1000\ntemplate quarantine(h) { deny from host $h; deny to host $h }\n" + bigPolicy(1000)
	if _, err := eng.SetSource(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = eng.Instantiate(obs.SpanContext{}, "quarantine", "h7")
		} else {
			_, err = eng.Retract(obs.SpanContext{}, "quarantine", "h7")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
