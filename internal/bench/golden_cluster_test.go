package bench

import (
	"path/filepath"
	"testing"

	"spechint/internal/apps"
)

// clusterGoldenPath is the committed canon for the small fixed cluster
// scenario: the 2-shard, test-scale sweep at both offered loads.
var clusterGoldenPath = filepath.Join(goldenDir, "cluster_small.json")

// TestGoldenCluster byte-compares the small cluster scenario against the
// committed canon, like TestGoldenRunStats does for the solo cells: any
// change to ring placement, hint batching, message timing or the population
// generator shows up as a diff here. Re-canonize deliberately with:
//
//	go test ./internal/bench -run GoldenCluster -update
func TestGoldenCluster(t *testing.T) {
	rep, err := clusterSweep(apps.TestScale(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, clusterGoldenPath, goldenJSON(t, rep))
}
