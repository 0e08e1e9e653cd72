package ctlrpc

import (
	"encoding/json"
	"fmt"

	"lightwave/internal/fleet"
)

// Fleet-scoped typed calls, served by NewFleetServer (cmd/lwfleetd).

// FleetStatus fetches fleet state.
func (c *Client) FleetStatus() (fleet.Status, error) {
	var r fleet.Status
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
	ch chan Response
}

// Watch subscribes to the fleet event stream. Events emitted before the
// subscription is acknowledged are not replayed. The watch registers like a
// unary call and rides the same demultiplexed reader: in-flight calls
// issued before the upgrade still complete, and every event is matched to
// the watch by its request ID.
func (c *Client) Watch() (*WatchStream, error) {
	// The buffer absorbs an event burst while the consumer is busy; the
	// server's subscription buffers as many.
	ch := make(chan Response, 256)
	id, err := c.register(pendingCall{ch: ch, stream: true})
	if err != nil {
		return nil, err
	}
	req := Request{ID: id, Method: MethodWatch}
	c.w.sendRequest(&req)

	var resp Response
	select {
	case resp = <-ch:
	case <-c.dead:
		return nil, c.brokenErr()
	}
	var ack WatchAck
	if resp.Error != "" {
		err = fmt.Errorf("ctlrpc: server: %s", resp.Error)
	} else if json.Unmarshal(resp.Result, &ack) != nil || !ack.Watching {
		err = fmt.Errorf("ctlrpc: bad watch ack %s", resp.Result)
	}
	if err != nil {
		// The server did not upgrade: the connection serves unary calls.
		c.mu.Lock()
		delete(c.pending, id)
		c.streaming = false
		c.mu.Unlock()
		return nil, err
	}
	return &WatchStream{c: c, ch: ch}, nil
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
