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
  NFS client software does not provide this capability", §2.1);
- **access shortcut**: cache replica locations and talk straight to a
  server that holds the file, skipping the forwarding hop.
"""

from repro.agent.agent import Agent, AgentConfig, Placement

__all__ = ["Agent", "AgentConfig", "Placement"]
