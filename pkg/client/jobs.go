package client

import (
	"context"
	"net/http"
	"strconv"

	"repro/internal/gridservice"
)

// Job and campaign API (the loadgen surface). Job payloads are the
// broker's own wire types.

// SubmitJob submits one job (POST /v1/jobs) and returns its accepted
// status, tagged with the cluster the broker placed it on.
func (c *Client) SubmitJob(ctx context.Context, spec gridservice.JobSpec) (gridservice.JobStatus, error) {
	var st gridservice.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id int) (gridservice.JobStatus, error) {
	var st gridservice.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+strconv.Itoa(id), nil, &st)
	return st, err
}

// Completed reads the daemon's fleet-wide completed-job counter.
func (c *Client) Completed(ctx context.Context) (int, error) {
	var st struct {
		Fleet struct {
			Completed int `json:"completed"`
		} `json:"fleet"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st.Fleet.Completed, err
}

// Campaign mirrors the broker's campaign payload.
type Campaign struct {
	ID         int    `json:"id"`
	Name       string `json:"name"`
	Tasks      int    `json:"tasks"`
	Completed  int    `json:"completed"`
	Killed     int    `json:"killed"`
	PerCluster []int  `json:"per_cluster"`
	Done       bool   `json:"done"`
}

// SubmitCampaign fans a bag of best-effort tasks across the fleet.
func (c *Client) SubmitCampaign(ctx context.Context, name string, tasks int, runTime float64) (Campaign, error) {
	var out Campaign
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", map[string]any{
		"name": name, "tasks": tasks, "run_time": runTime,
	}, &out)
	return out, err
}

// CampaignStatus fetches one campaign.
func (c *Client) CampaignStatus(ctx context.Context, id int) (Campaign, error) {
	var out Campaign
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+strconv.Itoa(id), nil, &out)
	return out, err
}
