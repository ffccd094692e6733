"""Client agents (§5.3).

The agent is the client-side software between the user process and the NFS
protocol.  Figure 8 shows the placement options — kernel procedure, user
loadable library, or auxiliary user process — which differ in the cost of
the local hop between the user program and the agent.

Agent functions, each independently switchable (the F8 experiment sweeps
them):

- **caching** of file data, attributes, and path→handle bindings — every
  cache is one ``_Cache`` (poll-with-TTL plus version revalidation), so
  the coherence policy lives in one place;
- **failover**: when the connected server fails, pick another and continue
  (Deceit handles are server-independent, so this just works — "standard
  NFS client software does not provide this capability", §2.1); NFS calls
  and special commands alike;
- **access shortcut** (on by default): getattr, lookup, readdir and read
  replies name the replica holders and the token holder, and the file's
  next getattr or whole-file read, or the directory's next lookup or
  readdir, goes straight to a holder, skipping the mount server's
  forwarding hop; the file's next whole-file write goes to the token
  holder, which applies it: the token stays put (§3.3: no pass for a
  likely single update).
"""

from repro.agent.agent import Agent, AgentConfig, Placement

__all__ = ["Agent", "AgentConfig", "Placement"]
