package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The crash-replay chaos suite. A real drevald process (this test
// binary re-executed via TestMain's DREVALD_CRASH_CHILD hook) is
// SIGKILLed in the middle of a batched ingest stream, then restarted
// on the same WAL directory. The durability contract under -fsync
// always:
//
//  1. zero acked-record loss — every acknowledged batch survives the
//     crash and is replayed;
//  2. batch atomicity — the recovered epoch lands on a batch boundary,
//     never inside one;
//  3. bit-identical aggregates — streamed estimates over the recovered
//     state equal a batch /evaluate over the same record prefix, and
//     are byte-identical across restarts with worker pools {1, 2, 8}.

// crashChild is one re-executed drevald process.
type crashChild struct {
	cmd *exec.Cmd
	url string
}

// startCrashChild boots a drevald subprocess on a kernel-assigned port
// and scrapes the listen address from its access log.
func startCrashChild(t *testing.T, dir string, extra ...string) *crashChild {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-wal-dir", dir,
		"-fsync", "always",
		"-segment-bytes", "8192",
		"-drain-timeout", "5s",
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DREVALD_CRASH_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	listenLine := regexp.MustCompile(`msg="drevald listening" addr=([^ ]+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &crashChild{cmd: cmd, url: "http://" + addr}
	case <-time.After(30 * time.Second):
		t.Fatal("drevald subprocess never reported a listen address")
		return nil
	}
}

// waitReplayed polls /healthz until WAL replay finishes, returning the
// final wal block.
func (c *crashChild) waitReplayed(t *testing.T) *walJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			var h healthJSON
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.WAL != nil && !h.WAL.Replaying {
				if h.WAL.ReplayError != "" {
					t.Fatalf("replay failed: %s", h.WAL.ReplayError)
				}
				return h.WAL
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("WAL replay never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postJSON is like post but against a subprocess URL and returns the
// raw body alongside the status.
func postJSON(url, path string, body any) (int, []byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url+path, "application/json", &buf)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func TestCrashReplaySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	dir := t.TempDir()
	records := testTraceJSON(t, false)
	const batchSize = 20
	nBatches := len(records) / batchSize // 20 batches of 20

	// Phase 1: stream batches into a live server and SIGKILL it
	// mid-stream. The first half is ingested synchronously so the crash
	// provably lands after real acks; the rest races the kill.
	child := startCrashChild(t, dir, "-workers", "1")
	child.waitReplayed(t)

	var mu sync.Mutex
	var acked []ingestResponse
	sendBatch := func(i int) bool {
		status, raw, err := postJSON(child.url, "/ingest", ingestRequest{
			Records: records[i*batchSize : (i+1)*batchSize],
		})
		if err != nil || status != http.StatusOK {
			return false // crashed under us — expected
		}
		var ack ingestResponse
		if err := json.Unmarshal(raw, &ack); err != nil {
			t.Errorf("batch %d: bad ack %s", i, raw)
			return false
		}
		if !ack.Durable || ack.Acked != batchSize {
			t.Errorf("batch %d: ack %+v not durable", i, ack)
		}
		mu.Lock()
		acked = append(acked, ack)
		mu.Unlock()
		return true
	}
	for i := 0; i < nBatches/2; i++ {
		if !sendBatch(i) {
			t.Fatal("server died before the crash was scheduled")
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := nBatches / 2; i < nBatches; i++ {
			if !sendBatch(i) {
				return
			}
		}
	}()
	time.Sleep(3 * time.Millisecond) // land inside the racing ingests
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
	_ = child.cmd.Wait()

	mu.Lock()
	lastAcked := 0
	for _, a := range acked {
		if a.Epoch > lastAcked {
			lastAcked = a.Epoch
		}
	}
	ackedBatches := len(acked)
	mu.Unlock()
	if lastAcked < nBatches/2*batchSize {
		t.Fatalf("only %d records acked before the crash", lastAcked)
	}
	t.Logf("SIGKILL after %d acked batches (epoch %d)", ackedBatches, lastAcked)

	// Phase 2: restart on the same WAL dir with worker pools {1, 2, 8}.
	// Replay must recover every acked record, land on a batch boundary,
	// report the same epoch every time, and serve byte-identical
	// streamed estimates regardless of pool width.
	evalReq := evalRequest{Policy: "constant:c", Options: evalOptions{Clip: 5}}
	var prevEpoch int
	var prevBody []byte
	for _, w := range []int{1, 2, 8} {
		child := startCrashChild(t, dir, "-workers", strconv.Itoa(w))
		wal := child.waitReplayed(t)

		if wal.Epoch < lastAcked {
			t.Fatalf("workers=%d: acked-record loss: epoch %d < last ack %d", w, wal.Epoch, lastAcked)
		}
		if wal.Epoch%batchSize != 0 {
			t.Fatalf("workers=%d: replay split a batch: epoch %d", w, wal.Epoch)
		}
		if prevEpoch != 0 && wal.Epoch != prevEpoch {
			t.Fatalf("workers=%d: epoch drifted across restarts: %d != %d", w, wal.Epoch, prevEpoch)
		}
		prevEpoch = wal.Epoch

		status, streamed, err := postJSON(child.url, "/evaluate", evalReq)
		if err != nil || status != http.StatusOK {
			t.Fatalf("workers=%d: streamed evaluate: status %d err %v (%s)", w, status, err, streamed)
		}
		if prevBody != nil && !bytes.Equal(streamed, prevBody) {
			t.Fatalf("workers=%d: streamed response differs across restarts:\n%s\nvs\n%s", w, streamed, prevBody)
		}
		prevBody = streamed

		// Oracle: batch /evaluate over the exact replayed prefix must
		// agree bit-for-bit on the point estimates.
		var got evalResponse
		if err := json.Unmarshal(streamed, &got); err != nil {
			t.Fatal(err)
		}
		batchReq := evalReq
		batchReq.Trace = records[:wal.Epoch]
		status, raw, err := postJSON(child.url, "/evaluate", batchReq)
		if err != nil || status != http.StatusOK {
			t.Fatalf("workers=%d: batch oracle: status %d err %v", w, status, err)
		}
		var want evalResponse
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]float64{
			"DM":  {got.DM.Value, want.DM.Value},
			"IPS": {got.IPS.Value, want.IPS.Value},
			"DR":  {got.DR.Value, want.DR.Value},
		} {
			if pair[0] != pair[1] {
				t.Fatalf("workers=%d: %s diverged after replay: %v != %v", w, name, pair[0], pair[1])
			}
		}
		if got.Diagnostics != want.Diagnostics {
			t.Fatalf("workers=%d: diagnostics diverged: %+v != %+v", w, got.Diagnostics, want.Diagnostics)
		}

		// Graceful stop so the next cycle starts from a clean tail.
		if err := child.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := child.cmd.Wait(); err != nil {
			t.Fatalf("workers=%d: shutdown: %v", w, err)
		}
	}
	t.Logf("recovered epoch %d across 3 restarts, estimates bit-identical", prevEpoch)
}

// TestCrashReplayRepeatedKills survives several consecutive crashes —
// each cycle ingests a few batches, SIGKILLs, restarts, and checks the
// monotone epoch never loses an acked record.
func TestCrashReplayRepeatedKills(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	dir := t.TempDir()
	records := testTraceJSON(t, false)
	const batchSize = 10
	lastAcked := 0
	next := 0
	for cycle := 0; cycle < 3; cycle++ {
		child := startCrashChild(t, dir)
		wal := child.waitReplayed(t)
		if wal.Epoch < lastAcked {
			t.Fatalf("cycle %d: acked-record loss: epoch %d < %d", cycle, wal.Epoch, lastAcked)
		}
		// The engine may have replayed un-acked batches from the torn
		// stream; resume ingesting from its epoch, not our ack count.
		next = wal.Epoch / batchSize
		for i := 0; i < 4 && (next+1)*batchSize <= len(records); i++ {
			status, raw, err := postJSON(child.url, "/ingest", ingestRequest{
				Records: records[next*batchSize : (next+1)*batchSize],
			})
			if err != nil || status != http.StatusOK {
				t.Fatalf("cycle %d: ingest failed: status %d err %v (%s)", cycle, status, err, raw)
			}
			var ack ingestResponse
			if err := json.Unmarshal(raw, &ack); err != nil {
				t.Fatal(err)
			}
			lastAcked = ack.Epoch
			next++
		}
		if err := child.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = child.cmd.Wait()
	}

	child := startCrashChild(t, dir)
	wal := child.waitReplayed(t)
	if wal.Epoch < lastAcked {
		t.Fatalf("final replay lost acked records: epoch %d < %d", wal.Epoch, lastAcked)
	}
	if wal.Epoch != lastAcked {
		t.Fatalf("sequential acks should equal the epoch exactly: %d != %d", wal.Epoch, lastAcked)
	}
	status, _, err := postJSON(child.url, "/evaluate", evalRequest{Policy: "best-observed"})
	if err != nil || status != http.StatusOK {
		t.Fatalf("evaluate after 3 crashes: status %d err %v", status, err)
	}
}
