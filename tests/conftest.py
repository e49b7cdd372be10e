def index_perm(G, alpha) -> list[int]:
    """The map ``alpha`` on the elements of G as the list of the index of
    alpha(g) for each index g: the form `burnside_action_check` takes."""
    idx = G.index_map()
    return [idx[alpha[g]] for g in G.elements()]
