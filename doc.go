// Package otif is a Go implementation of OTIF ("Efficient Tracker
// Pre-processing over Large Video Datasets", Bastani & Madden, SIGMOD
// 2022): a video pre-processor that extracts all object tracks from large
// video datasets as fast as video query optimizers can answer a single
// query, so that arbitrary detection/track queries afterwards run in
// milliseconds over the stored tracks.
//
// The pipeline integrates three techniques under one joint parameter
// tuner:
//
//   - a segmentation proxy model that finds the regions of each frame that
//     contain objects, so the expensive detector runs only inside small
//     windows drawn from a pre-selected window-size set;
//   - a recurrent reduced-rate tracker that associates detections across
//     large sampling gaps using multi-frame motion context, with endpoint
//     refinement from clustered training tracks;
//   - a greedy tuner that explores detector architecture/resolution, proxy
//     resolution/threshold, and sampling gap to produce a speed-accuracy
//     curve approximating the Pareto frontier.
//
// # Quick start
//
//	pipe, err := otif.Open("caldot1", otif.Options{Seed: 7})
//	if err != nil { ... }
//	pipe.Train()                    // theta_best, proxies, trackers, refiner
//	curve, err := pipe.Tune(ctx)    // speed-accuracy curve on validation set
//	cfg, err := otif.PickFastestWithin(curve, 0.05)
//	ts, err := pipe.Extract(ctx, cfg.Cfg, otif.Test)
//	counts := ts.PathBreakdown("car", pipe.Movements(), 100)
//
// A TrackSet is the indexed track store (store.Querier) plus a header: the
// query kinds, Clips, Tracks(i), Context and Manifest are the store's own
// methods, and only LimitQuery is declared on top, to take its separation
// in seconds. The store has one shape, a segmented store.Sharded, whether
// Extract built it, LoadTrackSets read it or an ingest session published
// it. An IngestSession is likewise the ingest session itself plus
// Tracks().
//
// Tune and Extract cancel cooperatively at iteration/clip boundaries and
// report partial progress via *PartialError. Structured progress events
// ride the call's context (WithProgress), and per-stage metrics via
// otif.Snapshot() (see DESIGN.md §9).
//
// Beyond batch extraction, Pipeline.Ingest streams clips from N
// simulated cameras through the trained models into a live indexed
// store whose snapshots are queryable while ingest continues (see
// DESIGN.md §13).
//
// # Performance knobs
//
// Worker count is the one process-wide setting (SetParallelism; the CLIs
// call it once at startup from -parallel). It does not change results:
// extracted tracks, simulated runtimes and tuning curves are bit-identical
// at any setting.
//
// GPU inference and real video are replaced by a deterministic simulation
// substrate (see DESIGN.md); all runtimes the library reports are simulated
// V100/Xeon seconds from a calibrated cost model.
package otif
