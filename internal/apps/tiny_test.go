package apps_test

import (
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/memtrace"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/mdmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

// TestEveryAppRunsAtTinyScale: every registered app completes one
// iteration at scale 0.001, where each one's size floor takes over, so
// each floor must keep its kernels' indexes in range (s3d's grid must hold
// at least one z-stride of points).
func TestEveryAppRunsAtTinyScale(t *testing.T) {
	names := apps.Names()
	if len(names) != 5 {
		t.Fatalf("registered apps = %v, want the five proxies", names)
	}
	for _, name := range names {
		app, err := apps.New(name, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if err := apps.Run(app, memtrace.New(memtrace.Config{StackMode: memtrace.FastStack}), 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
