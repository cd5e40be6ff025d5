// Package fedsql implements the interactive, federated SQL layer of the
// stack — the Presto stand-in (§4.5): a query engine that executes full SQL
// (joins, subqueries) across heterogeneous backends through a Connector API,
// pushing as much of the plan as possible down to each backend.
//
// A Connector has two scan methods. OpenScan streams (projected,
// filtered, ordered, limited) rows as a RowIterator of column-major
// batches, which the engine's scan, join and aggregate paths consume
// batch-at-a-time; AggregateScan pushes a whole aggregate query into the
// backend so only the finalized per-group rows cross the connector
// boundary. Capabilities are declared explicitly per fragment; an
// aggregate a connector cannot absorb falls back to a row scan plus
// engine-side hash aggregation, counted in QueryStats.PushdownFallbacks
// (and logged via Engine.Logf when set).
//
// The Pinot connector pushes predicates, projections, aggregations and
// limits into the OLAP layer (§4.3.2, E11/E18) — with a pluggable routing
// strategy (PinotConnector.Router) so partition-filtered federated queries
// skip servers entirely — which is what makes sub-second federated queries
// on fresh data possible; the archive connector streams the long-term
// store one columnar part at a time and relies on engine-side processing,
// like Presto-over-Hive.
// Result.Stats unifies connector-side and backend execution counters, and
// Result.Plan records one pushdown/routing line per table scan (the
// payload of sqlshell's EXPLAIN).
//
// Concurrency and cancellation thread end-to-end: Engine.QueryCtx passes
// its context through every connector scan into the OLAP broker's parallel
// scatter-gather, join sides execute concurrently, and a cancelled or
// timed-out federated query stops segment scans inside the backend.
package fedsql
