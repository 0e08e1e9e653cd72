package ctlrpc

import (
	"encoding/json"
	"fmt"
)

// Fleet-scoped typed calls, served by NewFleetServer (cmd/lwfleetd).

// FleetStatus fetches fleet state.
func (c *Client) FleetStatus() (FleetStatusResult, error) {
	var r FleetStatusResult
	err := c.call(MethodFleetStatus, nil, &r)
	return r, err
}

// ApplyIntent updates a pod's desired slice set.
func (c *Client) ApplyIntent(p ApplyIntentParams) (ApplyIntentResult, error) {
	var r ApplyIntentResult
	err := c.call(MethodApplyIntent, p, &r)
	return r, err
}

// Drain drains a pod, or one OCS within it when ocs is non-nil.
func (c *Client) Drain(pod string, ocs *int) error {
	return c.call(MethodDrain, DrainParams{Pod: pod, OCS: ocs}, nil)
}

// Undrain returns a pod (or one OCS) to service; a pod undrain also
// releases any quarantine.
func (c *Client) Undrain(pod string, ocs *int) error {
	return c.call(MethodUndrain, DrainParams{Pod: pod, OCS: ocs}, nil)
}

// WatchStream is a live fleet event feed. It owns the client's connection:
// after Watch succeeds, unary calls on the same client fail with
// ErrClientStreaming. Close the stream (or the client) to release the
// connection.
type WatchStream struct {
	c  *Client
	id uint64
	ch chan Response
}

// Watch subscribes to the fleet event stream. Events emitted before the
// subscription is acknowledged are not replayed. The watch rides the same
// demultiplexed reader as unary calls: in-flight calls issued before the
// upgrade still complete, and every event is matched to the watch by its
// request ID.
func (c *Client) Watch() (*WatchStream, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := fmt.Errorf("%w: %v", ErrClientBroken, c.broken)
		c.mu.Unlock()
		return nil, err
	}
	if c.streaming {
		c.mu.Unlock()
		return nil, ErrClientStreaming
	}
	c.startLocked()
	c.nextID++
	id := c.nextID
	ch := make(chan Response, 256)
	c.watchID, c.watchCh = id, ch
	// Block unary calls from this point: once the server upgrades, it
	// stops reading further requests on this connection.
	c.streaming = true
	c.mu.Unlock()

	fail := func(err error) (*WatchStream, error) {
		c.mu.Lock()
		c.watchID, c.watchCh = 0, nil
		c.streaming = false
		c.mu.Unlock()
		return nil, err
	}

	req := Request{ID: id, Method: MethodWatch}
	c.enqueue(&req)

	select {
	case resp := <-ch:
		if resp.Error != "" {
			return fail(fmt.Errorf("ctlrpc: server: %s", resp.Error))
		}
		var ack WatchAck
		if err := json.Unmarshal(resp.Result, &ack); err != nil || !ack.Watching {
			return fail(fmt.Errorf("ctlrpc: bad watch ack %s", resp.Result))
		}
	case <-c.dead:
		return fail(c.brokenErr())
	}
	return &WatchStream{c: c, id: id, ch: ch}, nil
}

// Next blocks for the next event. It returns an error when the stream or
// connection closes; events already buffered when the connection died are
// still delivered first.
func (w *WatchStream) Next() (WatchEvent, error) {
	var ev WatchEvent
	var resp Response
	select {
	case resp = <-w.ch: // drain buffered events before reporting death
	default:
		select {
		case resp = <-w.ch:
		case <-w.c.dead:
			return ev, fmt.Errorf("ctlrpc: watch read: %w", w.c.brokenErr())
		}
	}
	if resp.Error != "" {
		return ev, fmt.Errorf("ctlrpc: server: %s", resp.Error)
	}
	if err := json.Unmarshal(resp.Result, &ev); err != nil {
		return ev, fmt.Errorf("ctlrpc: decoding event: %w", err)
	}
	return ev, nil
}

// Close tears the stream down by closing the underlying connection (the
// watch upgrade dedicated the connection to the stream).
func (w *WatchStream) Close() error { return w.c.Close() }
