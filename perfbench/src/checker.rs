//! The benchmark's own answer checker.
//!
//! It keeps plain sorted adjacency and keyword lists copied from the input
//! graph, replays deltas with its own code, and judges every response by the
//! definitions of the paper (Problem 1, and the two variants of Appendix G)
//! without calling any solver, index or graph routine of the workspace. Its
//! naive solver (whole-graph peeling, then a level-wise search over keyword
//! subsets of the k-ĉore) decides whether a label is maximal and a vertex
//! set exact.

use acq_core::{QuerySpec, Request, Response};
use acq_graph::{AttributedGraph, GraphDelta, VertexId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The keyword rule a request asks for.
#[derive(Debug, Clone, PartialEq)]
enum Rule {
    /// Problem 1: the largest label of `S` that every member shares.
    Shared,
    /// Variant 1 (SW): every member carries all of `S`.
    Exact,
    /// Variant 2 (SWT): every member carries at least this many of `S`.
    Threshold(usize),
}

/// A community in comparison form: sorted label, sorted members.
type Canon = (Vec<u32>, Vec<u32>);

/// What the checker keeps of a response: the communities as returned, with
/// member lists shared between answers that repeat them (a k-ĉore fallback
/// can hold most of the graph), and the metadata the report reads.
#[derive(Debug, Clone)]
pub struct Answer {
    pub generation: u64,
    pub label_size: usize,
    /// Label and members of each community, in the order returned.
    pub communities: Vec<(Vec<u32>, Arc<Vec<u32>>)>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Shares identical member lists between answers.
#[derive(Debug, Default)]
pub struct Interner {
    seen: HashMap<u64, Vec<Arc<Vec<u32>>>>,
}

impl Interner {
    pub fn answer(&mut self, response: &Response) -> Answer {
        let communities = response
            .result
            .communities
            .iter()
            .map(|c| {
                let members: Vec<u32> = c.vertices.iter().map(|v| v.0).collect();
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                members.hash(&mut hasher);
                let bucket = self.seen.entry(hasher.finish()).or_default();
                let shared = match bucket.iter().find(|m| ***m == members) {
                    Some(m) => Arc::clone(m),
                    None => {
                        let m = Arc::new(members);
                        bucket.push(Arc::clone(&m));
                        m
                    }
                };
                (c.label.iter().map(|k| k.0).collect(), shared)
            })
            .collect();
        Answer {
            generation: response.meta.generation,
            label_size: response.result.label_size,
            communities,
            cache_hits: response.meta.cache_hits,
            cache_misses: response.meta.cache_misses,
        }
    }
}

#[derive(Debug, Clone)]
pub struct NaiveGraph {
    adj: Vec<Vec<u32>>,
    kw: Vec<Vec<u32>>,
    terms: Arc<HashMap<String, u32>>,
    /// The k-ĉores per `k`, memoised until the next structural delta.
    cores: RefCell<HashMap<usize, Arc<Cores>>>,
}

/// The connected components of a graph's k-core.
#[derive(Debug)]
struct Cores {
    /// Component index per vertex; `usize::MAX` outside the k-core.
    component: Vec<usize>,
    /// Sorted members per component.
    members: Vec<Vec<u32>>,
}

fn sorted_unique(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn insert_sorted(list: &mut Vec<u32>, x: u32) {
    if let Err(at) = list.binary_search(&x) {
        list.insert(at, x);
    }
}

fn remove_sorted(list: &mut Vec<u32>, x: u32) {
    if let Ok(at) = list.binary_search(&x) {
        list.remove(at);
    }
}

impl NaiveGraph {
    /// Copies adjacency, keyword sets and the term dictionary of `graph`.
    pub fn copy_from(graph: &AttributedGraph) -> Self {
        let n = graph.num_vertices();
        let mut adj = Vec::with_capacity(n);
        let mut kw = Vec::with_capacity(n);
        for v in 0..n as u32 {
            adj.push(sorted_unique(graph.neighbors(VertexId(v)).iter().map(|x| x.0).collect()));
            kw.push(sorted_unique(graph.keyword_set(VertexId(v)).iter().map(|k| k.0).collect()));
        }
        let terms = graph.dictionary().iter().map(|(id, term)| (term.to_string(), id.0)).collect();
        Self { adj, kw, terms: Arc::new(terms), cores: RefCell::default() }
    }

    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn term(&self, term: &str) -> Result<u32, String> {
        self.terms
            .get(term)
            .copied()
            .ok_or_else(|| format!("term {term:?} is not in the input dictionary"))
    }

    fn check_vertex(&self, v: VertexId) -> Result<usize, String> {
        let v = v.0 as usize;
        if v < self.adj.len() {
            Ok(v)
        } else {
            Err(format!("delta names vertex {v} of {}", self.adj.len()))
        }
    }

    /// Applies one delta with the semantics the program documents: inserting
    /// a present edge or keyword, or removing an absent one, changes nothing.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), String> {
        if !matches!(delta, GraphDelta::AddKeyword { .. } | GraphDelta::RemoveKeyword { .. }) {
            self.cores.get_mut().clear();
        }
        match delta {
            GraphDelta::InsertEdge { u, v } | GraphDelta::RemoveEdge { u, v } => {
                let (a, b) = (self.check_vertex(*u)?, self.check_vertex(*v)?);
                if a == b {
                    return Err(format!("self-loop delta on {a}"));
                }
                if matches!(delta, GraphDelta::InsertEdge { .. }) {
                    insert_sorted(&mut self.adj[a], b as u32);
                    insert_sorted(&mut self.adj[b], a as u32);
                } else {
                    remove_sorted(&mut self.adj[a], b as u32);
                    remove_sorted(&mut self.adj[b], a as u32);
                }
            }
            GraphDelta::AddKeyword { vertex, term } => {
                let v = self.check_vertex(*vertex)?;
                let id = self.term(term)?;
                insert_sorted(&mut self.kw[v], id);
            }
            GraphDelta::RemoveKeyword { vertex, term } => {
                let v = self.check_vertex(*vertex)?;
                let id = self.term(term)?;
                remove_sorted(&mut self.kw[v], id);
            }
            GraphDelta::InsertVertex { keywords, .. } => {
                let ids = keywords.iter().map(|t| self.term(t)).collect::<Result<Vec<_>, _>>()?;
                self.adj.push(Vec::new());
                self.kw.push(sorted_unique(ids));
            }
        }
        Ok(())
    }

    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<(), String> {
        deltas.iter().try_for_each(|d| self.apply(d))
    }

    /// Whether two graphs have the same vertices, edges and keyword sets;
    /// the error names the first difference.
    pub fn same_as(&self, other: &NaiveGraph) -> Result<(), String> {
        if self.adj.len() != other.adj.len() {
            return Err(format!("{} vertices against {}", self.adj.len(), other.adj.len()));
        }
        for v in 0..self.adj.len() {
            if self.adj[v] != other.adj[v] {
                return Err(format!("neighbours of {v} differ"));
            }
            if self.kw[v] != other.kw[v] {
                return Err(format!("keywords of {v} differ"));
            }
        }
        Ok(())
    }

    fn holds_all(&self, v: u32, label: &[u32]) -> bool {
        let have = &self.kw[v as usize];
        label.iter().all(|w| have.binary_search(w).is_ok())
    }

    fn shares(&self, v: u32, s: &[u32]) -> usize {
        let have = &self.kw[v as usize];
        s.iter().filter(|w| have.binary_search(w).is_ok()).count()
    }

    /// The keyword set and rule a request names, resolved on this graph.
    fn rule_of(&self, request: &Request) -> (Vec<u32>, Rule) {
        let q = request.vertex.0 as usize;
        match &request.spec {
            QuerySpec::Community { keywords } => {
                let wq = &self.kw[q];
                let s = match keywords {
                    None => wq.clone(),
                    Some(s) => sorted_unique(
                        s.iter().map(|k| k.0).filter(|w| wq.binary_search(w).is_ok()).collect(),
                    ),
                };
                (s, Rule::Shared)
            }
            QuerySpec::ExactKeywords { keywords } => {
                (sorted_unique(keywords.iter().map(|k| k.0).collect()), Rule::Exact)
            }
            QuerySpec::Threshold { keywords, theta } => {
                let s = sorted_unique(keywords.iter().map(|k| k.0).collect());
                let required = ((theta * s.len() as f64).ceil().max(0.0) as usize).min(s.len());
                (s, Rule::Threshold(required))
            }
        }
    }

    /// Checks the conditions every answer must meet: the community holds
    /// `q`, is connected, has minimum internal degree at least `k`, every
    /// member holds the label (or, for SWT, enough of `S`), and the label is
    /// within `S`. An empty answer is judged by the naive solver.
    pub fn check(&self, request: &Request, answer: &Answer) -> Result<(), String> {
        let q = request.vertex.0;
        if q as usize >= self.num_vertices() {
            return Err(format!("query vertex {q} does not exist"));
        }
        if answer.communities.is_empty() {
            return self.check_exact(request, answer);
        }
        let (s, rule) = self.rule_of(request);
        let mut labels = BTreeSet::new();
        for (given_label, given_members) in &answer.communities {
            let label = sorted_unique(given_label.clone());
            if label.len() != given_label.len() {
                return Err("label repeats a keyword".into());
            }
            if label.len() != answer.label_size {
                return Err(format!(
                    "label of size {} under label_size {}",
                    label.len(),
                    answer.label_size
                ));
            }
            if !labels.insert(label.clone()) {
                return Err("two communities share a label".into());
            }
            match rule {
                Rule::Shared if !label.iter().all(|w| s.binary_search(w).is_ok()) => {
                    return Err("label is not within S".into())
                }
                Rule::Exact if label != s => return Err("SW label differs from S".into()),
                Rule::Threshold(_) if !label.is_empty() => {
                    return Err("SWT label is not empty".into())
                }
                _ => {}
            }
            let members = sorted_unique(given_members.to_vec());
            if members.len() != given_members.len() {
                return Err("community repeats a member".into());
            }
            if rule == Rule::Shared && label.is_empty() {
                // The fallback: exactly the k-ĉore containing q.
                if answer.communities.len() > 1
                    || self.kcore_containing(q, request.k).as_ref() != Some(&members)
                {
                    return Err("empty-label answer is not the k-ĉore containing q".into());
                }
                continue;
            }
            if members.binary_search(&q).is_err() {
                return Err("community does not contain q".into());
            }
            if members.last().is_some_and(|&v| v as usize >= self.num_vertices()) {
                return Err("community names a vertex that does not exist".into());
            }
            let mut inside_set = vec![false; self.num_vertices()];
            for &v in &members {
                inside_set[v as usize] = true;
            }
            for &v in &members {
                let inside =
                    self.adj[v as usize].iter().filter(|&&x| inside_set[x as usize]).count();
                if inside < request.k {
                    return Err(format!(
                        "member {v} has {inside} neighbours inside, k = {}",
                        request.k
                    ));
                }
                let holds = match rule {
                    Rule::Threshold(required) => self.shares(v, &s) >= required,
                    _ => self.holds_all(v, &label),
                };
                if !holds {
                    return Err(format!("member {v} does not hold the label"));
                }
            }
            if !self.connected(&mut inside_set, members.len(), q) {
                return Err("community is not connected".into());
            }
        }
        if rule != Rule::Shared && answer.communities.len() > 1 {
            return Err("a variant query returned several communities".into());
        }
        Ok(())
    }

    /// [`check`](Self::check) plus the naive solver: the answer must be
    /// exactly the set of communities whose labels are maximal.
    pub fn check_full(&self, request: &Request, answer: &Answer) -> Result<(), String> {
        self.check(request, answer)?;
        self.check_exact(request, answer)
    }

    fn check_exact(&self, request: &Request, answer: &Answer) -> Result<(), String> {
        let expected = self.solve(request);
        let mut got: Vec<Canon> = answer
            .communities
            .iter()
            .map(|(label, members)| (sorted_unique(label.clone()), sorted_unique(members.to_vec())))
            .collect();
        got.sort();
        got.dedup();
        if got == expected {
            Ok(())
        } else {
            let sizes = |list: &[Canon]| -> Vec<(usize, usize)> {
                list.iter().map(|(l, c)| (l.len(), c.len())).collect()
            };
            Err(format!(
                "answer differs from the naive solution: (label size, members) {:?} against {:?}",
                sizes(&got),
                sizes(&expected)
            ))
        }
    }

    /// Whether the `size` vertices marked in `inside` are connected to `q`;
    /// clears the marks of the vertices it reaches.
    fn connected(&self, inside: &mut [bool], size: usize, q: u32) -> bool {
        inside[q as usize] = false;
        let mut queue = VecDeque::from([q]);
        let mut reached = 1;
        while let Some(v) = queue.pop_front() {
            for &x in &self.adj[v as usize] {
                if inside[x as usize] {
                    inside[x as usize] = false;
                    reached += 1;
                    queue.push_back(x);
                }
            }
        }
        reached == size
    }

    /// The k-ĉore containing `q`, sorted; `None` when `q` is outside the
    /// k-core. Whole-graph peeling, then components, once per `k`.
    fn kcore_containing(&self, q: u32, k: usize) -> Option<Vec<u32>> {
        let cores = Arc::clone(
            self.cores.borrow_mut().entry(k).or_insert_with(|| Arc::new(self.cores_of(k))),
        );
        let c = cores.component[q as usize];
        (c != usize::MAX).then(|| cores.members[c].clone())
    }

    fn cores_of(&self, k: usize) -> Cores {
        let n = self.num_vertices();
        let mut degree: Vec<usize> = self.adj.iter().map(Vec::len).collect();
        let mut alive = vec![true; n];
        let mut stack: Vec<usize> = (0..n).filter(|&v| degree[v] < k).collect();
        while let Some(v) = stack.pop() {
            if !alive[v] {
                continue;
            }
            alive[v] = false;
            for &x in &self.adj[v] {
                let x = x as usize;
                if alive[x] {
                    degree[x] -= 1;
                    if degree[x] < k {
                        stack.push(x);
                    }
                }
            }
        }
        let mut component = vec![usize::MAX; n];
        let mut members = Vec::new();
        for start in 0..n {
            if !alive[start] || component[start] != usize::MAX {
                continue;
            }
            let c = members.len();
            component[start] = c;
            let mut queue = VecDeque::from([start]);
            let mut list = Vec::new();
            while let Some(v) = queue.pop_front() {
                list.push(v as u32);
                for &x in &self.adj[v] {
                    let x = x as usize;
                    if alive[x] && component[x] == usize::MAX {
                        component[x] = c;
                        queue.push_back(x);
                    }
                }
            }
            list.sort_unstable();
            members.push(list);
        }
        Cores { component, members }
    }

    /// The connected k-core containing `q` of the subgraph induced by the
    /// vertices `universe[i]` with `keep[i]`. `universe` is sorted.
    fn peel(&self, universe: &[u32], keep: &[bool], q: u32, k: usize) -> Option<Vec<u32>> {
        const ABSENT: u32 = u32::MAX;
        let mut position = vec![ABSENT; self.num_vertices()];
        for (i, &v) in universe.iter().enumerate() {
            if keep[i] {
                position[v as usize] = i as u32;
            }
        }
        let index =
            |x: u32| Some(position[x as usize]).filter(|&p| p != ABSENT).map(|p| p as usize);
        let mut alive = keep.to_vec();
        let mut degree = vec![0usize; universe.len()];
        let mut stack = Vec::new();
        for (i, &v) in universe.iter().enumerate() {
            if alive[i] {
                degree[i] = self.adj[v as usize].iter().filter(|&&x| index(x).is_some()).count();
                if degree[i] < k {
                    stack.push(i);
                }
            }
        }
        while let Some(i) = stack.pop() {
            if !alive[i] {
                continue;
            }
            alive[i] = false;
            for &x in &self.adj[universe[i] as usize] {
                if let Some(j) = index(x) {
                    if alive[j] {
                        degree[j] -= 1;
                        if degree[j] < k {
                            stack.push(j);
                        }
                    }
                }
            }
        }
        let start = index(q).filter(|&i| alive[i])?;
        let mut seen = vec![false; universe.len()];
        seen[start] = true;
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(i) = queue.pop_front() {
            out.push(universe[i]);
            for &x in &self.adj[universe[i] as usize] {
                if let Some(j) = index(x) {
                    if alive[j] && !seen[j] {
                        seen[j] = true;
                        queue.push_back(j);
                    }
                }
            }
        }
        out.sort_unstable();
        Some(out)
    }

    /// The naive answer to `request`, in comparison form.
    fn solve(&self, request: &Request) -> Vec<Canon> {
        let (q, k) = (request.vertex.0, request.k);
        let Some(universe) = self.kcore_containing(q, k) else {
            return Vec::new();
        };
        let (s, rule) = self.rule_of(request);
        let within = |set: &[u32], test: &dyn Fn(u32) -> bool| {
            let keep: Vec<bool> = set.iter().map(|&v| test(v)).collect();
            self.peel(set, &keep, q, k)
        };
        let community_with = |test: &dyn Fn(u32) -> bool| within(&universe, test);
        match rule {
            Rule::Exact => community_with(&|v| self.holds_all(v, &s))
                .map(|c| vec![(s.clone(), c)])
                .unwrap_or_default(),
            Rule::Threshold(required) => community_with(&|v| self.shares(v, &s) >= required)
                .map(|c| vec![(Vec::new(), c)])
                .unwrap_or_default(),
            Rule::Shared => {
                // Level-wise search: a label can only be feasible if every
                // label one keyword smaller is, and its community lies
                // inside each of theirs.
                let mut level: Vec<Canon> = s
                    .iter()
                    .filter_map(|&w| {
                        community_with(&|v| self.holds_all(v, &[w])).map(|c| (vec![w], c))
                    })
                    .collect();
                if level.is_empty() {
                    return vec![(Vec::new(), universe)];
                }
                loop {
                    let feasible: BTreeSet<Vec<u32>> =
                        level.iter().map(|(l, _)| l.clone()).collect();
                    let mut candidates = BTreeMap::new();
                    for (a, parent) in &level {
                        for (b, _) in &level {
                            if a < b && a[..a.len() - 1] == b[..b.len() - 1] {
                                let mut joined = a.clone();
                                joined.push(b[b.len() - 1]);
                                let all_subsets_feasible = (0..joined.len()).all(|skip| {
                                    let subset: Vec<u32> = joined
                                        .iter()
                                        .enumerate()
                                        .filter(|&(i, _)| i != skip)
                                        .map(|(_, &w)| w)
                                        .collect();
                                    feasible.contains(&subset)
                                });
                                if all_subsets_feasible {
                                    candidates.insert(joined, parent);
                                }
                            }
                        }
                    }
                    let next: Vec<Canon> = candidates
                        .into_iter()
                        .filter_map(|(label, parent)| {
                            within(parent, &|v| self.holds_all(v, &label))
                                .map(|c| (label.clone(), c))
                        })
                        .collect();
                    if next.is_empty() {
                        let mut answer = level;
                        answer.sort();
                        return answer;
                    }
                    level = next;
                }
            }
        }
    }
}

/// Checks that [`NaiveGraph::check_full`] accepts `answer` and rejects
/// each of three planted wrong answers made from it: a member dropped, a
/// vertex that does not share the label added, and the label shrunk.
/// `answer` must carry a non-empty label.
pub fn plant_self_test(
    graph: &NaiveGraph,
    request: &Request,
    answer: &Answer,
) -> Result<(), String> {
    graph.check_full(request, answer).map_err(|e| format!("the unplanted answer fails: {e}"))?;
    let (label, members) = &answer.communities[0];
    let q = request.vertex.0;
    let mut plants = Vec::new();

    let mut dropped = answer.clone();
    let victim = members.iter().rposition(|&v| v != q).ok_or("community holds only q")?;
    Arc::make_mut(&mut dropped.communities[0].1).remove(victim);
    plants.push(("member dropped", dropped));

    let outsider = (0..graph.num_vertices() as u32)
        .find(|&v| !graph.holds_all(v, label))
        .ok_or("every vertex holds the label")?;
    let mut added = answer.clone();
    let grown = Arc::make_mut(&mut added.communities[0].1);
    let at = grown.binary_search(&outsider).unwrap_or_else(|at| at);
    grown.insert(at, outsider);
    plants.push(("non-sharing vertex added", added));

    let mut shrunk = answer.clone();
    shrunk.communities.truncate(1);
    shrunk.communities[0].0.pop();
    shrunk.label_size -= 1;
    plants.push(("label shrunk", shrunk));

    for (name, plant) in &plants {
        if graph.check_full(request, plant).is_ok() {
            return Err(format!("planted wrong answer passed the checker: {name}"));
        }
    }
    Ok(())
}
