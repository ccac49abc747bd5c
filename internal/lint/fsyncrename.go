package lint

import (
	"go/ast"
	"go/token"
)

// FsyncRename rejects an os.Rename whose source bytes were written earlier
// in the same function with no (*os.File).Sync in between. Rename is the
// atomic-publish step of the tmp+fsync+rename discipline: the kernel may
// reorder the data writes after the directory update, so a crash right
// after the rename can publish an empty or truncated file under the final
// name. The Sync before the rename is what pins the data ahead of the
// publish. Streaming checkpoints are published by creating a new name, not
// by rename (DESIGN.md §13), and the WAL seal's rename is a pure move, so
// no code in the module renames a file it wrote: the rule stays as a guard
// against a tmp+rename publish coming back without its Sync.
//
// The check is per function body (nested literals are separate scopes):
// any file-write operation (os.WriteFile/Create/OpenFile or an (*os.File)
// write method) followed by os.Rename with no (*os.File).Sync between the
// first write and the rename fires. Renames with no same-function write —
// pure moves — are not this analyzer's business.
var FsyncRename = &Analyzer{
	Name: "fsyncrename",
	Doc:  "os.Rename publishing bytes written in the same function without an (*os.File).Sync can surface empty files after a crash",
	Run: func(p *Package) []Diag {
		var out []Diag
		for _, f := range p.Files {
			for _, body := range functionBodies(f) {
				out = append(out, fsyncRenameIn(p, body)...)
			}
		}
		return out
	},
}

// fsyncRenameIn scans one body for write → rename sequences missing a Sync.
func fsyncRenameIn(p *Package, body *ast.BlockStmt) []Diag {
	var (
		firstWrite token.Pos
		syncs      []token.Pos
		renames    []token.Pos
	)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := calleeOf(p.Info, n)
			if fn == nil || pkgPathOf(fn) != "os" {
				return true
			}
			name := fn.Name()
			if sigOf(fn).Recv() == nil {
				switch name {
				case "WriteFile", "Create", "OpenFile":
					if firstWrite == token.NoPos {
						firstWrite = n.Lparen
					}
				case "Rename":
					renames = append(renames, n.Lparen)
				}
				return true
			}
			if !recvNamed(fn, "os", "File") {
				return true
			}
			switch name {
			case "Write", "WriteAt", "WriteString":
				if firstWrite == token.NoPos {
					firstWrite = n.Lparen
				}
			case "Sync":
				syncs = append(syncs, n.Lparen)
			}
		}
		return true
	})
	if firstWrite == token.NoPos {
		return nil
	}
	var out []Diag
	for _, r := range renames {
		if r < firstWrite {
			continue
		}
		synced := false
		for _, s := range syncs {
			if s > firstWrite && s < r {
				synced = true
				break
			}
		}
		if synced {
			continue
		}
		out = append(out, Diag{
			Pos: r,
			Message: "os.Rename publishes a file written in this function with no (*os.File).Sync before it: " +
				"a crash after the rename can leave an empty or truncated file under the final name — fsync the temp file first (tmp+fsync+rename)",
		})
	}
	return out
}
