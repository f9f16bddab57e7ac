package trace_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// TestTextRouteDigests pins the text route's bytes on a small sysim
// workload (128 vertices, edge factor 8, seed 7): the gem5 text WriteGem5
// renders and the NVMain text ConvertStreamOpts makes of it. The digests
// were taken from the fmt-based writers the package had before.
func TestTextRouteDigests(t *testing.T) {
	const (
		wantGem5   = "55fee68737cb0c1a3a27ec994cf36f28091cdd6c6506dec2ff33e8be41f0df52"
		wantNVMain = "03bfd6c2392a57bf511848d4bc221474e35691c11ad700ebb8650d4de4ea6da7"
	)
	m, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 128, 8, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var gem5, nv bytes.Buffer
	if err := trace.WriteGem5(&gem5, m.Trace(), 500); err != nil {
		t.Fatal(err)
	}
	st, err := trace.ConvertStreamOpts(bytes.NewReader(gem5.Bytes()), &nv, trace.ConvertOptions{
		TicksPerCycle: 500, Workers: 2, ChunkSize: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsOut != int64(m.TraceLen()) || st.BadLines != 0 {
		t.Fatalf("converted %d of %d events, %d bad lines", st.EventsOut, m.TraceLen(), st.BadLines)
	}
	digest := func(b []byte) string { d := sha256.Sum256(b); return hex.EncodeToString(d[:]) }
	if got := digest(gem5.Bytes()); got != wantGem5 {
		t.Errorf("gem5 text digest %s, want %s", got, wantGem5)
	}
	if got := digest(nv.Bytes()); got != wantNVMain {
		t.Errorf("NVMain text digest %s, want %s", got, wantNVMain)
	}
}
