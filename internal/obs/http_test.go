package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("banshee_jobs_total", "").Add(3)
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "banshee_jobs_total 3") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "banshee_goroutines") {
		t.Errorf("/metrics missing runtime series:\n%s", body)
	}

	for _, path := range []string{"/metrics?format=json", "/debug/vars"} {
		code, body = get(t, base+path)
		var out map[string]interface{}
		if code != http.StatusOK || json.Unmarshal([]byte(body), &out) != nil {
			t.Errorf("%s = %d, body not JSON:\n%s", path, code, body)
		} else if out["banshee_jobs_total"].(float64) != 3 {
			t.Errorf("%s counter = %v, want 3", path, out["banshee_jobs_total"])
		}
	}

	if code, _ = get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body = get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d:\n%s", code, body)
	}
	if code, _ = get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestServeBadAddrFailsEagerly(t *testing.T) {
	if _, err := Serve("256.0.0.1:0", NewRegistry()); err == nil {
		t.Fatal("expected bind error at Serve time")
	}
}
