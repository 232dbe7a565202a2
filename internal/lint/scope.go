package lint

import (
	"slices"
	"strings"
)

// Scoped reports whether the named analyzer applies to pkgPath. Each
// analyzer encodes a discipline that holds in specific layers of the stack:
//
//   - clockcheck: every package that does lease mathematics or event
//     timestamping must use the injected clock.Clock so simulated and live
//     timelines agree. internal/clock is the one wholesale-exempt layer;
//     the transport is checked too since the batcher landed, with its few
//     legitimate wall-clock sites (codec timing, socket deadlines, injected
//     wire latency) annotated //lint:allow.
//   - ctxclean: shutdown wiring applies to every package that spawns
//     long-lived goroutines in the live stack.
//   - hotalloc: the //lint:hotpath roots live in the wire codec and the
//     transport batcher; findings land where the allocation is, so both
//     layers are in scope.
//   - lockflow: the shard-mutex discipline is a property of the
//     lease-granting layer, the server. The proxy is a server.Server plus an
//     Origin whose methods run under that server's shard mutex; it stays in
//     scope so a mutex added there is held to the same rules. Blocking steps
//     can be *reached* through helpers anywhere; findings are reported in
//     the locked section.
func Scoped(analyzer, pkgPath string) bool {
	sub, ok := strings.CutPrefix(pkgPath, "repro/internal/")
	if !ok {
		return false
	}
	top, _, _ := strings.Cut(sub, "/")
	var layers []string
	switch analyzer {
	case "clockcheck":
		layers = []string{"core", "server", "client", "proxy", "sim", "audit", "obs", "metrics", "health", "cost", "transport", "state", "daemon"}
	case "ctxclean":
		layers = []string{"server", "client", "proxy", "obs", "audit", "health", "cost", "transport", "state"}
	case "hotalloc":
		layers = []string{"wire", "transport"}
	case "lockflow":
		layers = []string{"server", "proxy"}
	}
	return slices.Contains(layers, top)
}
