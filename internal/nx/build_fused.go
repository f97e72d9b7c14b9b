//go:build !hpcctree

package nx

// treeBuild is false in the shipped binary: collectives run on the fused
// engine unless a test pins Config.collectives.
const treeBuild = false
