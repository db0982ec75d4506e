package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// FuzzDecodeJobSpec hardens the jobs-API intake: DecodeJobSpec never
// panics, never accepts a spec asking for more than one shard per run,
// and every spec it accepts normalizes to a form that survives an
// encode → decode round trip unchanged (what the journal and the -json
// outputs rely on).
func FuzzDecodeJobSpec(f *testing.F) {
	for version := 1; version <= SchemaVersion; version++ {
		raw, err := os.ReadFile(fmt.Sprintf("testdata/jobspec_v%d.json", version))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"shards":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if spec.Shards > 1 {
			t.Fatalf("accepted shards=%d", spec.Shards)
		}
		norm := spec.Normalized()
		raw, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJobSpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("normalized spec %s does not decode: %v", raw, err)
		}
		if !reflect.DeepEqual(back, norm) {
			t.Fatalf("round trip changed the normalized spec:\n got %#v\nwant %#v", back, norm)
		}
	})
}
