package server

import "rsmi/internal/wire"

// The wire names benchmark/ reaches through this package. The serving
// tier's own code names internal/wire directly; these aliases stay until
// the benchmark imports internal/wire itself.
type (
	BatchOp        = wire.BatchOp
	BatchRequest   = wire.BatchRequest
	BatchResult    = wire.BatchResult
	PointJSON      = wire.PointJSON
	RectJSON       = wire.RectJSON
	KNNJSON        = wire.KNNJSON
	TraceJSON      = wire.TraceJSON
	TraceStageJSON = wire.TraceStageJSON
)

const (
	OpPoint  = wire.OpPoint
	OpWindow = wire.OpWindow
	OpKNN    = wire.OpKNN
	OpInsert = wire.OpInsert
	OpDelete = wire.OpDelete
)
