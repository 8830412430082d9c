package checkpoint

import (
	"fmt"
	"testing"

	"netfail/internal/frame"
)

// BenchmarkAppend measures the kernel-durable append path — the
// per-record cost every admitted ingest record pays in netfail-serve.
func BenchmarkAppend(b *testing.B) {
	st, _, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	data := []byte("benchmark record payload: sixty-four bytes of syslog-ish text..")
	b.SetBytes(int64(len(data) + frame.Overhead + seqLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover measures cold-start recovery over a WAL holding
// 4096 records with no snapshot — the worst-case restart a crashed
// netfail-serve pays before it can serve again.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("record %d: link state transition payload", i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, rec, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Records) != 4096 {
			b.Fatalf("recovered %d records, want 4096", len(rec.Records))
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
