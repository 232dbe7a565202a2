package obs

import (
	"fmt"

	"repro/internal/transport"
)

// RegisterBatchStats exposes a transport.BatchStats through the registry as
// the lease_batch_* series: flush and frame totals, coalesced-frame count,
// and the batch-size histogram as cumulative-style buckets keyed by upper
// bound. The snapshot is taken at scrape time, so registration costs
// nothing on the wire path.
func RegisterBatchStats(r *Registry, node string, bs *transport.BatchStats) {
	if r == nil || bs == nil {
		return
	}
	r.GaugeFunc(fmt.Sprintf("lease_batch_flushes_total{node=%q}", node), func() float64 {
		return float64(bs.Snapshot().Flushes)
	})
	r.GaugeFunc(fmt.Sprintf("lease_batch_frames_total{node=%q}", node), func() float64 {
		return float64(bs.Snapshot().Frames)
	})
	r.GaugeFunc(fmt.Sprintf("lease_batch_coalesced_frames_total{node=%q}", node), func() float64 {
		return float64(bs.Snapshot().Coalesced)
	})
	for i := 0; i < transport.BatchSizeBuckets; i++ {
		i := i
		name := fmt.Sprintf("lease_batch_size_flushes{node=%q,le=%q}",
			node, transport.BatchSizeBucketLabel(i))
		r.GaugeFunc(name, func() float64 {
			return float64(bs.Snapshot().SizeCounts[i])
		})
	}
}
