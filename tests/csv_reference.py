"""Scalar reference for the trajectory CSV: every value indexed row by
row and the whole file built as one list of lines."""


def reference_csv(traj) -> str:
    """The text ``Trajectory.to_csv`` must write, byte for byte."""
    cols = "t,node_id,x_arc,c,G"
    if traj.fluxes is not None:
        cols += ",J"
    lines = [cols]
    ids, arc = traj.mesh.node_ids.tolist(), traj.mesh.arc_lengths()
    for k, t in enumerate(traj.times):
        big_g = traj.tube_contents(k)
        for i in range(traj.mesh.n_nodes):
            row = (
                f"{float(t)!r},{ids[i]},{float(arc[i])!r},"
                f"{float(traj.states[k, i])!r},{float(big_g[i])!r}"
            )
            if traj.fluxes is not None:
                row += f",{float(traj.fluxes[k, i])!r}"
            lines.append(row)
    return "\n".join(lines) + "\n"
