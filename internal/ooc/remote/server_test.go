package remote

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"oocphylo/internal/iosim"
)

func TestServerRangedGetPut(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/obj"

	// Create a 32-byte object.
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=32", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truncate: HTTP %d", resp.StatusCode)
	}
	if got := s.Size("obj"); got != 32 {
		t.Fatalf("size = %d, want 32", got)
	}

	// Ranged PUT in the middle.
	req, _ = http.NewRequest(http.MethodPut, base, strings.NewReader("ABCDEFGH"))
	req.Header.Set("Content-Range", "bytes 8-15/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ranged put: HTTP %d", resp.StatusCode)
	}

	// Ranged GET reads it back; the zero region stays zero.
	req, _ = http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Range", "bytes=6-17")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged get: HTTP %d", resp.StatusCode)
	}
	if want := "\x00\x00ABCDEFGH\x00\x00"; string(body) != want {
		t.Fatalf("ranged get = %q, want %q", body, want)
	}
	if cr := resp.Header.Get("Content-Range"); cr != "bytes 6-17/32" {
		t.Errorf("Content-Range = %q", cr)
	}

	// Writes past the end grow the object.
	req, _ = http.NewRequest(http.MethodPut, base, strings.NewReader("xy"))
	req.Header.Set("Content-Range", "bytes 40-41/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.Size("obj"); got != 42 {
		t.Errorf("size after grow = %d, want 42", got)
	}

	// HEAD reports the size; a missing object is 404.
	resp, err = http.Head(base)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != 42 {
		t.Errorf("HEAD Content-Length = %d, want 42", resp.ContentLength)
	}
	resp, err = http.Head("http://" + s.Addr() + "/o/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("HEAD missing: HTTP %d, want 404", resp.StatusCode)
	}

	// Unsatisfiable range.
	req, _ = http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Range", "bytes=100-120")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("past-end range: HTTP %d, want 416", resp.StatusCode)
	}
}

func TestServerLatencyInjection(t *testing.T) {
	s, err := NewServer(ServerConfig{
		Device: iosim.Device{Name: "wan", Latency: 20 * time.Millisecond, Bandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/x"
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=64", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	start := time.Now()
	req, _ = http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Range", "bytes=0-63")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("injected 20ms latency but request took %v", elapsed)
	}
	if s.Clock().Ops() == 0 {
		t.Error("clock ledger not charged")
	}
}

func TestServerConcurrentRanges(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/c"
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=800", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			payload := strings.Repeat(string(rune('a'+i)), 100)
			req, _ := http.NewRequest(http.MethodPut, base, strings.NewReader(payload))
			req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", i*100, i*100+99))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		req, _ := http.NewRequest(http.MethodGet, base, nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", i*100, i*100+99))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := strings.Repeat(string(rune('a'+i)), 100); string(body) != want {
			t.Fatalf("stripe %d corrupted: %q...", i, body[:8])
		}
	}
}

// TestServerChaosInjection drives each injected fault kind through the
// HTTP surface and pins the server's core safety rule: stored objects
// are never mutated by injection, whatever the GET path returned.
func TestServerChaosInjection(t *testing.T) {
	chaos := iosim.NewChaos(iosim.ChaosConfig{})
	chaos.Disable()
	s, err := NewServer(ServerConfig{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/chaos"

	payload := "ABCDEFGHIJKLMNOP"
	put := func() int {
		req, _ := http.NewRequest(http.MethodPut, base, strings.NewReader(payload))
		req.Header.Set("Content-Range", "bytes 0-15/*")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func() (string, int, error) {
		req, _ := http.NewRequest(http.MethodGet, base, nil)
		req.Header.Set("Range", "bytes=0-15")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", 0, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body), resp.StatusCode, rerr
	}
	if code := put(); code != http.StatusOK {
		t.Fatalf("clean PUT: HTTP %d", code)
	}
	chaos.Enable()

	// 503 burst: the request fails without touching the object.
	s.SetChaos(iosim.NewChaos(iosim.ChaosConfig{ErrorProb: 1}))
	if _, code, _ := get(); code != http.StatusServiceUnavailable {
		t.Errorf("FaultError GET: HTTP %d, want 503", code)
	}

	// Connection drop: the client sees a transport error, not a body.
	s.SetChaos(iosim.NewChaos(iosim.ChaosConfig{DropProb: 1}))
	if _, _, err := get(); err == nil {
		t.Error("FaultDrop GET completed")
	}

	// Corrupt: the GET body differs from the stored bytes...
	s.SetChaos(iosim.NewChaos(iosim.ChaosConfig{CorruptProb: 1}))
	if body, code, err := get(); err != nil || code != http.StatusPartialContent {
		t.Fatalf("FaultCorrupt GET: HTTP %d err %v", code, err)
	} else if body == payload {
		t.Error("FaultCorrupt returned pristine bytes")
	}

	// ...and a corrupt-verdict PUT degrades to a drop, so the stored
	// object survives both unscathed.
	if code := put(); code == http.StatusOK {
		t.Error("FaultCorrupt PUT succeeded (must degrade to drop)")
	}
	s.SetChaos(iosim.NewChaos(iosim.ChaosConfig{TruncateProb: 1}))
	if body, _, _ := get(); body == payload {
		t.Error("FaultTruncate returned the full body")
	}
	if code := put(); code == http.StatusOK {
		t.Error("FaultTruncate PUT succeeded (must degrade to drop)")
	}

	s.SetChaos(nil)
	if body, code, err := get(); err != nil || code != http.StatusPartialContent || body != payload {
		t.Errorf("object mutated by injection: %q HTTP %d err %v", body, code, err)
	}
}

// TestServerSetChaosConcurrent swaps the fault injector while clients
// keep requesting, so the race detector sees SetChaos against in-flight
// handlers; every request served after the final SetChaos(nil) must
// succeed.
func TestServerSetChaosConcurrent(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := "http://" + s.Addr() + "/o/swap"
	req, _ := http.NewRequest(http.MethodPut, url+"?truncate=16", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	get := func() (int, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get() // outcome depends on the injector in force
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s.SetChaos(iosim.NewChaos(iosim.ChaosConfig{ErrorProb: 1}))
		s.SetChaos(nil)
	}
	close(stop)
	wg.Wait()
	if code, err := get(); err != nil || code != http.StatusOK {
		t.Errorf("after SetChaos(nil): HTTP %d err %v", code, err)
	}
}
