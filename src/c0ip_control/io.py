"""File export: plain-text meshes, legacy VTK, and CSV tables."""

from __future__ import annotations

import csv
import os

import numpy as np

__all__ = ["write_mesh_txt", "write_vtk", "write_csv"]


def _block(fmt, values):
    """One line of ``fmt`` per row of ``values``, formatted in one step."""
    values = np.asarray(values)
    return (fmt * len(values)) % tuple(values.ravel().tolist())


def write_mesh_txt(mesh, node_path, element_path):
    """One vertex "x y" per line; one triangle "i j k" (0-based) per line."""
    with open(node_path, "w") as fh:
        fh.write(_block("%.16g %.16g\n", mesh.vertices))
    with open(element_path, "w") as fh:
        fh.write(_block("%d %d %d\n", mesh.triangles))


def write_vtk(mesh, path, point_data=None, cell_data=None):
    """Legacy VTK unstructured grid with optional scalar fields.

    ``point_data``/``cell_data`` map field names to per-vertex or
    per-triangle arrays; a P2 coefficient array, vertex dofs first, is
    written as its vertex values.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("plate control output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % nv)
        fh.write(_block("%.12g %.12g 0\n", mesh.vertices))
        fh.write("CELLS %d %d\n" % (nt, 4 * nt))
        fh.write(_block("3 %d %d %d\n", mesh.triangles))
        fh.write("CELL_TYPES %d\n" % nt)
        fh.write("5\n" * nt)
        if point_data:
            fh.write("POINT_DATA %d\n" % nv)
            for name, values in point_data.items():
                fh.write("SCALARS %s double 1\n" % name)
                fh.write("LOOKUP_TABLE default\n")
                fh.write(_block("%.12g\n", np.asarray(values)[:nv]))
        if cell_data:
            fh.write("CELL_DATA %d\n" % nt)
            for name, values in cell_data.items():
                fh.write("SCALARS %s double 1\n" % name)
                fh.write("LOOKUP_TABLE default\n")
                fh.write(_block("%.12g\n", values))


def write_csv(path, header, rows):
    """CSV with '.' decimals and >= 6 significant digits for floats."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                "%.6e" % v if isinstance(v, float) else
                ("" if v is None else v)
                for v in row
            ])
