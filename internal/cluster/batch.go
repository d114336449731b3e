// Cluster side of the batch subsystem: a routing item executor. A
// batch job runs entirely on the node that accepted it (job state,
// events, persistence are local), but each item's rewrite goes to the
// peer owning its content hash — the same ring /rewrite routes by — so
// a fleet job enjoys the cluster's cache locality: ten nodes each
// holding a slice of the fleet's analyses beat one node recomputing
// them all.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"icfgpatch/internal/service"
	"icfgpatch/internal/service/batch"
	"icfgpatch/internal/service/wire"
)

// InstallBatch replaces mgr's item executor with one that routes each
// item to its content hash's owning peer. Self-owned items run
// locally; forwarded items carry lane=batch so they land on the remote
// node's batch lane (a fleet job must not jump the priority fence by
// crossing the wire) and the routed marker so they cannot loop.
// Unreachable owners degrade to local execution — routing is a
// cache-locality policy, availability wins.
func (n *Node) InstallBatch(mgr *batch.Manager) {
	local := mgr.LocalExec()
	mgr.SetExec(func(ctx context.Context, it *batch.Item) (*service.Response, error) {
		owners := n.ring.Owners(it.Hash, n.cfg.Replicas)
		if slices.Contains(owners, n.cfg.Self) {
			return local(ctx, it)
		}
		var res *service.Response
		if n.tryOwners(owners, func(o string) (err error) {
			res, err = n.execItemAt(ctx, o, it)
			return err
		}) {
			return res, nil
		}
		// Every owner failed. Run the item here: a rewrite is
		// byte-identical anywhere, and a deterministic input error will
		// fail locally exactly as it failed remotely.
		return local(ctx, it)
	})
}

// execItemAt runs one item's rewrite on a specific peer over the plain
// /rewrite wire format. The owner's record arrives whole, stage laps
// included.
func (n *Node) execItemAt(ctx context.Context, owner string, it *batch.Item) (*service.Response, error) {
	u := strings.TrimSuffix(owner, "/") + "/rewrite?lane=batch&" + it.Opts
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(it.Input))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(RoutedHeader, n.cfg.Self)
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: peer batch item (%s): %s",
			resp.Status, strings.TrimSpace(string(msg)))
	}
	reply, image, err := wire.ReadFrame(resp.Body)
	if err != nil {
		return nil, err
	}
	return &service.Response{Image: image, Reply: *reply}, nil
}
