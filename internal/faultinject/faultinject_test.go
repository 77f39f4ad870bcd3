package faultinject

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

// TestInjectorManual: Set pins a fault and Set(Fault{}) heals.
func TestInjectorManual(t *testing.T) {
	in := NewInjector(1)
	if f := in.Fault(); f != (Fault{}) {
		t.Fatalf("fresh injector has fault %+v", f)
	}
	in.Set(Fault{Blackhole: true})
	if !in.Fault().Blackhole {
		t.Fatal("Set(Blackhole) not in effect")
	}
	in.Set(Fault{})
	if f := in.Fault(); f != (Fault{}) {
		t.Fatalf("healed injector has fault %+v", f)
	}
}

// TestInjectorSchedule: a timed schedule walks its phases, and a cycling
// schedule wraps around (the flapping-peer shape).
func TestInjectorSchedule(t *testing.T) {
	in := NewInjector(1)
	in.SetSchedule(false,
		Phase{Fault: Fault{}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{Blackhole: true}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{}, For: 30 * time.Millisecond},
	)
	if in.Fault().Blackhole {
		t.Fatal("phase 0 should be healthy")
	}
	time.Sleep(40 * time.Millisecond)
	if !in.Fault().Blackhole {
		t.Fatal("phase 1 should blackhole")
	}
	time.Sleep(35 * time.Millisecond)
	if in.Fault().Blackhole {
		t.Fatal("phase 2 should be healthy")
	}
	// non-cycling: the last phase holds forever
	time.Sleep(40 * time.Millisecond)
	if in.Fault().Blackhole {
		t.Fatal("last phase should hold")
	}

	in.SetSchedule(true,
		Phase{Fault: Fault{Blackhole: true}, For: 20 * time.Millisecond},
		Phase{Fault: Fault{}, For: 20 * time.Millisecond},
	)
	if !in.Fault().Blackhole {
		t.Fatal("cycling phase 0 should blackhole")
	}
	time.Sleep(45 * time.Millisecond) // one full cycle + 5ms: back in phase 0
	if !in.Fault().Blackhole {
		t.Fatal("cycling schedule did not wrap")
	}
}

// TestMiddlewareFaults: the server-side wrapper must pass healthy traffic,
// 503 on error injection, and hang blackholed requests until the client's
// deadline — never answer them.
func TestMiddlewareFaults(t *testing.T) {
	in := NewInjector(1)
	ts := httptest.NewServer(Middleware(in, okHandler()))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status %d", resp.StatusCode)
	}

	in.Set(Fault{ErrorRate: 1})
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("error-injected status %d, want 503", resp.StatusCode)
	}

	in.Set(Fault{Blackhole: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("blackholed request got a response")
	}
}

// echoServer serves newline-framed messages over a fault-wrapped listener,
// answering each with one Write — the shape of the socket wire's server.
func echoServer(t *testing.T, in *Injector) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := Listener(in, ln)
	t.Cleanup(func() { fl.Close() })
	go func() {
		for {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					c.Write([]byte(line))
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestTransportFaults: the wire-transport wrapper (Listener) must pass
// healthy messages, swallow blackholed ones, deliver delayed ones late
// without holding up the messages behind them, and reset the connection on
// error injection.
func TestTransportFaults(t *testing.T) {
	in := NewInjector(1)
	conn, err := net.Dial("tcp", echoServer(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	read := func(within time.Duration) (string, error) {
		conn.SetReadDeadline(time.Now().Add(within))
		return br.ReadString('\n')
	}

	io.WriteString(conn, "healthy\n")
	if got, err := read(2 * time.Second); err != nil || got != "healthy\n" {
		t.Fatalf("healthy message: %q, %v", got, err)
	}

	in.Set(Fault{Blackhole: true})
	io.WriteString(conn, "lost\n")
	if got, err := read(50 * time.Millisecond); err == nil {
		t.Fatalf("blackholed message answered: %q", got)
	}

	// the delayed response is decided first but must arrive second
	in.Set(Fault{Latency: 300 * time.Millisecond})
	start := time.Now()
	io.WriteString(conn, "slow\n")
	time.Sleep(30 * time.Millisecond)
	in.Set(Fault{})
	io.WriteString(conn, "fast\n")
	if got, err := read(2 * time.Second); err != nil || got != "fast\n" {
		t.Fatalf("message behind a delayed one: %q, %v (held up?)", got, err)
	}
	if got, err := read(2 * time.Second); err != nil || got != "slow\n" {
		t.Fatalf("delayed message: %q, %v", got, err)
	}
	if d := time.Since(start); d < 300*time.Millisecond {
		t.Fatalf("latency injection took %v, want >= 300ms", d)
	}

	in.Set(Fault{ErrorRate: 1})
	io.WriteString(conn, "reset\n")
	if got, err := read(2 * time.Second); err == nil {
		t.Fatalf("error-injected message answered: %q", got)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("error injection hung the connection instead of resetting it")
	}
}

// TestLatencyRate: a partial latency rate slows some requests and not
// others (the "20% slow peer" shape), deterministically per seed.
func TestLatencyRate(t *testing.T) {
	in := NewInjector(7)
	in.Set(Fault{Latency: time.Hour, LatencyRate: 0.5})
	slow := 0
	for i := 0; i < 64; i++ {
		if d, _, _ := in.decide(); d > 0 {
			slow++
		}
	}
	if slow == 0 || slow == 64 {
		t.Fatalf("LatencyRate 0.5 slowed %d/64 requests", slow)
	}
	// rate 0 with latency set means every request
	in.Set(Fault{Latency: time.Millisecond})
	if d, _, _ := in.decide(); d != time.Millisecond {
		t.Fatalf("zero rate with latency should always apply, got %v", d)
	}
}

// TestInjectorConcurrentScheduleMutation hammers one injector from many
// goroutines — decide/Fault readers racing Set and SetSchedule writers —
// the way a chaos benchmark's driver rewrites phases while request
// goroutines are mid-flight. The race detector is the real assertion; the
// invariant checked is that a decided fault is always one a configured
// phase could produce.
func TestInjectorConcurrentScheduleMutation(t *testing.T) {
	in := NewInjector(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				delay, _, blackhole := in.decide()
				if blackhole {
					t.Error("no configured phase blackholes")
					return
				}
				if delay != 0 && delay != 3*time.Millisecond {
					t.Errorf("decided delay %v matches no configured phase", delay)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			in.Set(Fault{ErrorRate: 0.5})
		case 1:
			in.SetSchedule(true,
				Phase{Fault: Fault{Latency: 3 * time.Millisecond}, For: time.Millisecond},
				Phase{Fault: Fault{}, For: time.Millisecond},
			)
		case 2:
			in.Set(Fault{})
		}
	}
	close(stop)
	wg.Wait()
}

// TestTransportScheduleConcurrent composes a timed phase schedule with the
// wire-transport wrapper (Listener) under concurrent connections: a healthy → failing → healthy
// schedule must reset some in-flight traffic mid-schedule and none once the
// final phase holds.
func TestTransportScheduleConcurrent(t *testing.T) {
	in := NewInjector(5)
	addr := echoServer(t, in)
	in.SetSchedule(false,
		Phase{Fault: Fault{}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{ErrorRate: 1}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{}, For: time.Millisecond},
	)
	// roundTrip sends one message on a fresh connection and reads the echo
	roundTrip := func() error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.WriteString(conn, "ping\n"); err != nil {
			return err
		}
		_, err = bufio.NewReader(conn).ReadString('\n')
		return err
	}

	var ok, reset, other atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(90 * time.Millisecond)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := roundTrip()
				var ne net.Error
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &ne) && ne.Timeout():
					other.Add(1)
				default:
					reset.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d timed-out requests (error injection must reset, not hang)", other.Load())
	}
	if ok.Load() == 0 || reset.Load() == 0 {
		t.Fatalf("schedule did not exercise both phases under concurrency: ok=%d reset=%d",
			ok.Load(), reset.Load())
	}
	// the non-cycling schedule's last phase holds: traffic is clean again
	for i := 0; i < 8; i++ {
		if err := roundTrip(); err != nil {
			t.Fatalf("request after heal phase failed: %v", err)
		}
	}
}
